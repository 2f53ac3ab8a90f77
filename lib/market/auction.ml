(** Price-driven admission rounds: joint tâtonnement over per-
    architecture price books, density-ranked admission through the
    ordinary tenant pipeline, SLA-aware preemption through the ordinary
    departure pipeline. The auction itself never touches a device — it
    only reads snapshots and calls [Control.Tenants]. *)

type admitted = {
  ad_tenant : Tenant.t;
  ad_at : float;
  ad_price : float;
  mutable ad_bid : Tenant.bid option;
  mutable ad_spend : float;
}

type round = {
  rd_index : int;
  rd_time : float;
  rd_prices : (Targets.Arch.kind * (Prices.rkind * float) list) list;
  rd_iterations : int;
  rd_converged : bool;
  rd_bidders : int;
  rd_admitted : string list;
  rd_deferred : string list;
  rd_preempted : string list;
  rd_rejected : string list;
}

type book = {
  bk_arch : Targets.Arch.kind;
  bk_devices : Targets.Device.t list;
  bk_prices : Prices.t;
}

type t = {
  au_tenants : Control.Tenants.t;
  au_books : book list; (* in order of first appearance on the path *)
  au_max_deferrals : int;
  mutable au_round : int;
  mutable au_waiting : (Tenant.t * int ref) list; (* bidder, deferrals *)
  mutable au_admitted : admitted list;
  mutable au_rounds : round list; (* newest first *)
}

let scope t = Netsim.Sim.obs t.au_tenants.Control.Tenants.sim
let now t = Netsim.Sim.now t.au_tenants.Control.Tenants.sim

let book_snaps book =
  List.map (fun d -> (Targets.Device.id d, Targets.Device.snapshot d))
    book.bk_devices

let book_occupancy book =
  let snaps = book_snaps book in
  (Prices.used_of_snapshots snaps, Prices.capacity_of_snapshots snaps)

let create ?(config = Prices.default_config) ?(max_deferrals = 50) ~tenants
    ~path () =
  let books =
    List.fold_left
      (fun acc d ->
        let kind = Targets.Device.kind d in
        match List.find_opt (fun b -> b.bk_arch = kind) acc with
        | Some b ->
          List.map
            (fun b' ->
              if b' == b then { b with bk_devices = b.bk_devices @ [ d ] }
              else b')
            acc
        | None ->
          acc
          @ [ { bk_arch = kind; bk_devices = [ d ];
                bk_prices = Prices.create ~config () } ])
      [] path
  in
  List.iter
    (fun b ->
      let used, capacity = book_occupancy b in
      Prices.seed_from_occupancy b.bk_prices ~used ~capacity)
    books;
  { au_tenants = tenants; au_books = books; au_max_deferrals = max_deferrals;
    au_round = 0; au_waiting = []; au_admitted = []; au_rounds = [] }

let books t = List.map (fun b -> (b.bk_arch, b.bk_prices)) t.au_books

let occupancy t =
  List.map (fun b -> (b.bk_arch, book_occupancy b)) t.au_books

(* Cheapest book for a footprint at current prices; deterministic tie
   break on path order. *)
let quote_book t footprint =
  match t.au_books with
  | [] -> invalid_arg "Market.Auction: empty path"
  | b0 :: rest ->
    List.fold_left
      (fun (best, best_cost) b ->
        let c = Prices.cost b.bk_prices footprint in
        if c < best_cost then (b, c) else (best, best_cost))
      (b0, Prices.cost b0.bk_prices footprint)
      rest

let quote t footprint = snd (quote_book t footprint)

let admitted t = t.au_admitted
let waiting t = List.map fst t.au_waiting

let find_admitted t name =
  List.find_opt (fun a -> a.ad_tenant.Tenant.mt_name = name) t.au_admitted

let is_known t name =
  find_admitted t name <> None
  || List.exists (fun (mt, _) -> mt.Tenant.mt_name = name) t.au_waiting

let submit t (mt : Tenant.t) =
  if not (is_known t mt.Tenant.mt_name) then
    t.au_waiting <- t.au_waiting @ [ (mt, ref 0) ]

let drop_admitted t name =
  t.au_admitted <-
    List.filter (fun a -> a.ad_tenant.Tenant.mt_name <> name) t.au_admitted

let withdraw t name =
  if find_admitted t name <> None then begin
    ignore (Control.Tenants.depart t.au_tenants name);
    drop_admitted t name
  end
  else
    t.au_waiting <-
      List.filter (fun (mt, _) -> mt.Tenant.mt_name <> name) t.au_waiting

(* -- clearing ----------------------------------------------------------- *)

let mcount t ?(labels = []) name =
  Obs.Metrics.incr (Obs.Scope.metrics (scope t)) ~labels name

(* Joint tâtonnement: every book steps against its own capacity while
   demand (waiting bidders shopping the cheapest book, admitted
   tenants' installed footprints) re-routes at each iteration. Returns
   (iterations, all books converged). *)
let iterate_prices t =
  let budget =
    match t.au_books with
    | [] -> 0
    | b :: _ -> (Prices.config b.bk_prices).Prices.cfg_budget
  in
  let occ = List.map (fun b -> (b, book_occupancy b)) t.au_books in
  let demands () =
    let zero = List.map (fun b -> (b, ref Targets.Resource.zero)) t.au_books in
    List.iter
      (fun (mt, _) ->
        let book, cost = quote_book t mt.Tenant.mt_footprint in
        let q = Tenant.demand mt ~unit_cost:cost in
        if q > 0 then begin
          let cell = List.assq book zero in
          cell :=
            Targets.Resource.add !cell
              (Targets.Resource.scale q mt.Tenant.mt_footprint)
        end)
      t.au_waiting;
    List.map
      (fun (b, (used, _)) ->
        (b, Targets.Resource.add used !(List.assq b zero)))
      occ
  in
  let capacity_of b = snd (List.assq b occ) in
  let rec go n =
    let ds = demands () in
    let settled =
      List.for_all
        (fun (b, demand) ->
          Prices.converged b.bk_prices ~capacity:(capacity_of b) ~demand)
        ds
    in
    if settled then (n, true)
    else if n >= budget then (n, false)
    else begin
      List.iter
        (fun (b, demand) ->
          ignore (Prices.step b.bk_prices ~capacity:(capacity_of b) ~demand))
        ds;
      go (n + 1)
    end
  in
  go 0

let publish_prices t =
  let m = Obs.Scope.metrics (scope t) in
  List.iter
    (fun b ->
      List.iter
        (fun (k, p) ->
          Obs.Metrics.set_gauge m
            ~labels:
              [ ("arch", Targets.Arch.kind_to_string b.bk_arch);
                ("kind", Prices.rkind_to_string k) ]
            "market.price" p)
        (Prices.prices b.bk_prices))
    t.au_books

(* Is this admission error a capacity problem preemption could cure, as
   opposed to a certification/access/duplicate reject? *)
let capacity_reject = function
  | Control.Tenants.Compilation _ -> true
  | Control.Tenants.Already_present | Control.Tenants.Certification _
  | Control.Tenants.Access_control _ ->
    false

(* Eviction candidates for an entrant of density [d]: admitted
   best-effort tenants whose standing bid is strictly less dense
   (priced-out tenants count as density 0), cheapest first. Protected
   tenants are never candidates. *)
let preemption_candidates t ~density =
  let standing a =
    match a.ad_bid with Some b -> b.Tenant.bid_density | None -> 0.
  in
  List.filter
    (fun a ->
      a.ad_tenant.Tenant.mt_sla = Tenant.Best_effort && standing a < density)
    t.au_admitted
  |> List.sort (fun a b ->
         match compare (standing a) (standing b) with
         | 0 -> compare a.ad_tenant.Tenant.mt_name b.ad_tenant.Tenant.mt_name
         | c -> c)

let clear t =
  t.au_round <- t.au_round + 1;
  Obs.Trace.with_span (Obs.Scope.trace (scope t)) "market.clear"
    ~attrs:[ ("round", Obs.Trace.I t.au_round) ]
    (fun span ->
      let bidders = List.length t.au_waiting in
      let iterations, converged = iterate_prices t in
      publish_prices t;
      (* final bids at the settled prices, densest first *)
      let quoted =
        List.map
          (fun (mt, defs) ->
            let cost = quote t mt.Tenant.mt_footprint in
            (mt, defs, cost, Tenant.bid mt ~unit_cost:cost))
          t.au_waiting
      in
      let ranked =
        List.sort
          (fun (a, _, _, ba) (b, _, _, bb) ->
            let d = function
              | Some x -> x.Tenant.bid_density
              | None -> 0.
            in
            match compare (d bb) (d ba) with
            | 0 -> compare a.Tenant.mt_name b.Tenant.mt_name
            | c -> c)
          quoted
      in
      let admitted_now = ref [] in
      let deferred = ref [] in
      let preempted = ref [] in
      let rejected = ref [] in
      let still_waiting = ref [] in
      let defer mt defs =
        incr defs;
        if !defs > t.au_max_deferrals then begin
          rejected := mt.Tenant.mt_name :: !rejected;
          Control.Tenants.record_outcome t.au_tenants
            Control.Tenants.Rejected;
          mcount t "market.rejected"
        end
        else begin
          deferred := mt.Tenant.mt_name :: !deferred;
          still_waiting := (mt, defs) :: !still_waiting;
          Control.Tenants.record_outcome t.au_tenants
            Control.Tenants.Deferred;
          mcount t "market.deferred"
        end
      in
      let evict a =
        let name = a.ad_tenant.Tenant.mt_name in
        match
          Control.Tenants.depart ~reason:`Preempted t.au_tenants name
        with
        | Ok _ ->
          drop_admitted t name;
          preempted := name :: !preempted;
          mcount t "market.preempted";
          true
        | Error _ -> false
      in
      let admit mt cost (bid : Tenant.bid) =
        Control.Tenants.admit t.au_tenants mt.Tenant.mt_program
          ~attrs:
            [ ("bid", Obs.Trace.F bid.Tenant.bid_value);
              ("density", Obs.Trace.F bid.Tenant.bid_density);
              ("price", Obs.Trace.F cost) ]
      in
      (* no amount of preemption can place a footprint bigger than every
         book's total capacity — reject instead of evicting for nothing *)
      let book_caps = List.map (fun b -> snd (book_occupancy b)) t.au_books in
      let impossible fp =
        not (List.exists (fun cap -> Targets.Resource.fits fp cap) book_caps)
      in
      List.iter
        (fun (mt, defs, cost, bid) ->
          match bid with
          | None -> defer mt defs (* priced out this round *)
          | Some bid ->
            let rec try_admit () =
              match admit mt cost bid with
              | Ok _ ->
                t.au_admitted <-
                  t.au_admitted
                  @ [ { ad_tenant = mt; ad_at = now t; ad_price = cost;
                        ad_bid = Some bid; ad_spend = 0. } ];
                admitted_now := mt.Tenant.mt_name :: !admitted_now;
                mcount t "market.admitted"
              | Error e when capacity_reject e ->
                if impossible mt.Tenant.mt_footprint then begin
                  rejected := mt.Tenant.mt_name :: !rejected;
                  mcount t "market.rejected"
                end
                else
                  (* out of capacity: evict the cheapest strictly less
                     dense best-effort tenant and retry; defer when no
                     victim remains *)
                  (match
                     preemption_candidates t ~density:bid.Tenant.bid_density
                   with
                   | [] -> defer mt defs
                   | victim :: _ ->
                     if evict victim then try_admit () else defer mt defs)
              | Error _ ->
                (* pipeline reject (certification, access control, ...):
                   final — admit already recorded the outcome *)
                rejected := mt.Tenant.mt_name :: !rejected;
                mcount t "market.rejected"
            in
            try_admit ())
        ranked;
      t.au_waiting <- List.rev !still_waiting;
      (* refresh standing bids and charge this round's rent *)
      List.iter
        (fun a ->
          let cost = quote t a.ad_tenant.Tenant.mt_footprint in
          a.ad_bid <- Tenant.bid a.ad_tenant ~unit_cost:cost;
          a.ad_spend <- a.ad_spend +. cost)
        t.au_admitted;
      mcount t "market.rounds";
      let round =
        { rd_index = t.au_round; rd_time = now t;
          rd_prices =
            List.map (fun b -> (b.bk_arch, Prices.prices b.bk_prices))
              t.au_books;
          rd_iterations = iterations; rd_converged = converged;
          rd_bidders = bidders; rd_admitted = List.rev !admitted_now;
          rd_deferred = List.rev !deferred;
          rd_preempted = List.rev !preempted;
          rd_rejected = List.rev !rejected }
      in
      t.au_rounds <- round :: t.au_rounds;
      Obs.Trace.add_attr span "bidders" (Obs.Trace.I bidders);
      Obs.Trace.add_attr span "admitted"
        (Obs.Trace.I (List.length round.rd_admitted));
      Obs.Trace.add_attr span "preempted"
        (Obs.Trace.I (List.length round.rd_preempted));
      Obs.Trace.add_attr span "converged" (Obs.Trace.B converged);
      round)

let rounds t = List.rev t.au_rounds

let pp_round ppf r =
  Fmt.pf ppf
    "round %d t=%.3f: %d bidders, %d admitted, %d deferred, %d preempted, \
     %d rejected (%d iterations%s)"
    r.rd_index r.rd_time r.rd_bidders
    (List.length r.rd_admitted)
    (List.length r.rd_deferred)
    (List.length r.rd_preempted)
    (List.length r.rd_rejected)
    r.rd_iterations
    (if r.rd_converged then "" else ", no convergence")
