(* Shared scaffolding for the experiment harness. *)

open Flexbpf.Builder

(* Where an experiment writes its JSON record: the checked-in file in a
   full-scale run, under [_smoke/] (git-ignored) in a smoke run, so a
   smoke gate leaves the full-scale records alone. *)
let smoke_dir = "_smoke"

let record_path ~smoke file =
  if not smoke then file
  else begin
    if not (Sys.file_exists smoke_dir) then Sys.mkdir smoke_dir 0o755;
    Filename.concat smoke_dir file
  end

(* Whole-stack compile path used by the placement experiments. *)
let mk_path ?(arch = Targets.Arch.Drmt) ?(switches = 3) () =
  [ Targets.Device.create ~id:"h0" Targets.Arch.host_ebpf;
    Targets.Device.create ~id:"nic0" Targets.Arch.smartnic ]
  @ List.init switches (fun i ->
        Targets.Device.create
          ~id:(Printf.sprintf "s%d" i)
          (Targets.Arch.profile_of_kind arch))
  @ [ Targets.Device.create ~id:"nic1" Targets.Arch.smartnic;
      Targets.Device.create ~id:"h1" Targets.Arch.host_ebpf ]

let exact_table ?(size = 1024) name =
  table name
    ~keys:[ exact (field "ipv4" "dst") ]
    ~actions:[ action "a" [ set_meta "x" (const 1) ] ]
    ~default:("a", []) ~size ()

let lpm_table ?(size = 1024) name =
  table name
    ~keys:[ lpm (field "ipv4" "dst") ]
    ~actions:[ action "a" [ set_meta "x" (const 1) ] ]
    ~default:("a", []) ~size ()

let h0_h1_packet ~h0 ~h1 ~born =
  Netsim.Traffic.tcp_packet ~src:h0 ~dst:h1 ~sport:1234 ~dport:80 ~born ()

(* -- Tenant-churn workload (E9 / E18) ---------------------------------

   A deterministic stream of tenant arrival specs: spec [i] fixes the
   program, sojourn, and market parameters of the i-th arrival, so two
   runs under different admission policies (market vs fixed threshold)
   face byte-identical tenant populations and the comparison isolates
   the policy. *)

type churn_spec = {
  cs_name : string;
  cs_program : Flexbpf.Ast.program;
  cs_sojourn : float; (* departs (or gives up waiting) after this long *)
  cs_budget : float; (* market: max spend per clearing round *)
  cs_weight : float; (* market: utility scale *)
  cs_protected : bool; (* market: Protected SLA, never preempted *)
}

let churn_workload ?(seed = 31) ?(mean_sojourn = 0.8) n =
  let rng = Random.State.make [| seed |] in
  let exp_draw mean = -.mean *. log (1. -. Random.State.float rng 1.) in
  List.init n (fun i ->
      let idx = i + 1 in
      let name = Printf.sprintf "tenant%d" idx in
      let program =
        (* 60% heavyweight ACL rule tables (64k..1M rules — the
           footprints that exhaust match memory and make admission a
           rationing problem), 40% lightweight stateful apps *)
        match Random.State.int rng 10 with
        | 0 | 1 ->
          Apps.Firewall.program ~owner:name ~boundary:100 ()
        | 2 | 3 ->
          Apps.Nat.program ~owner:name ~public:(900 + idx) ~subnet_lo:10
            ~subnet_hi:20 ()
        | _ ->
          Apps.Acl.program ~owner:name
            ~size:(65536 lsl Random.State.int rng 5)
            ()
      in
      { cs_name = name; cs_program = program;
        cs_sojourn = exp_draw mean_sojourn;
        cs_budget = 4. +. Random.State.float rng 12.;
        (* willingness-to-pay multiple over floor rent: everyone enters
           an idle market, the spread decides who survives congestion *)
        cs_weight = 1.2 +. Random.State.float rng 4.;
        cs_protected = Random.State.int rng 10 = 0 })

(* What one churn run reports, whichever admission policy drove it.
   Latency quantiles come from the [tenants.admit_latency_ms]
   histogram (every pipeline attempt, wall clock). Utilization is the
   bottleneck's: periodic samples of the most-loaded device on the
   path after warmup — pipeline-order placement funnels tenant
   elements onto the path's tail, so the scarce resource is one
   device's pool and that is the utilization admission policy
   decides. *)
type churn_stats = {
  ch_arrivals : int;
  ch_admitted : int; (* admission events (market: includes re-admissions) *)
  ch_rejected : int;
  ch_deferred : int; (* market only: deferral events *)
  ch_preempted : int; (* market only: evictions *)
  ch_departed : int;
  ch_mean_util : float;
  ch_peak_util : float;
  ch_lat_count : int;
  ch_lat_p50 : float; (* ms *)
  ch_lat_p90 : float;
  ch_lat_p99 : float;
  ch_rounds : int; (* market only: clearing rounds *)
  ch_converged : int; (* market only: rounds whose tatonnement settled *)
  ch_wall_s : float;
}

(* Shared scaffolding of both drivers: build the net, schedule exactly
   [List.length specs] arrivals with exponential gaps at rate [lambda]
   (a Poisson process of known length), sample switch utilization, run
   to a horizon past the last arrival, and read the latency histogram.
   [arrive] admits one spec, [before_run] installs policy machinery
   (the market's clearing loop), both closing over the net. *)
let churn_run ?(switches = 3) ~lambda ~specs ~make_arrive ?(tail = 1.0)
    ?(before_run = fun _ -> ()) () =
  let net = Flexnet.create ~arch:Targets.Arch.Drmt ~switches () in
  (match Flexnet.deploy_infrastructure net with
  | Ok _ -> ()
  | Error e -> failwith e);
  let sim = Flexnet.sim net in
  let tenants = Flexnet.tenants_exn net in
  Control.Tenants.set_clock tenants Unix.gettimeofday;
  let gen = Netsim.Traffic.create ~seed:77 sim in
  let arrivals = ref 0 in
  let arrive = make_arrive net in
  let t = ref 0.1 in
  List.iter
    (fun spec ->
      t := !t +. Netsim.Traffic.exponential gen ~mean:(1. /. lambda);
      let at = !t in
      Netsim.Sim.after sim at (fun () ->
          incr arrivals;
          arrive spec))
    specs;
  let horizon = !t +. tail in
  let warmup = 0.2 *. horizon in
  let bottleneck () =
    List.fold_left
      (fun acc d -> Float.max acc (Targets.Device.utilization d))
      0. (Flexnet.path net)
  in
  let samples = ref 0 and util_sum = ref 0. and util_peak = ref 0. in
  Netsim.Sim.every sim ~period:0.05 (fun () ->
      if Netsim.Sim.now sim >= warmup then begin
        let u = bottleneck () in
        incr samples;
        util_sum := !util_sum +. u;
        util_peak := Float.max !util_peak u
      end;
      Netsim.Sim.now sim < horizon);
  before_run (net, horizon);
  let w0 = Unix.gettimeofday () in
  Flexnet.run net ~until:horizon;
  let wall = Unix.gettimeofday () -. w0 in
  let m = Obs.Scope.metrics (Flexnet.obs net) in
  let h = Obs.Metrics.histogram m "tenants.admit_latency_ms" in
  ( net,
    !arrivals,
    (!util_sum /. float_of_int (max 1 !samples), !util_peak),
    Obs.Metrics.Histogram.
      (count h, quantile h 0.5, quantile h 0.9, quantile h 0.99),
    wall )

(* Market-policy churn: arrivals become bidders in a Market.Auction
   cleared every 100 ms; a tenant's sojourn timer withdraws it whether
   admitted (ordinary departure) or still waiting (gives up).
   [book_path] picks the devices the auction prices — default the
   path's tail device, the pool pipeline-order placement actually
   packs tenants onto, so prices track the contended resource. *)
let run_market_churn ?switches
    ?(book_path = fun net -> [ List.hd (List.rev (Flexnet.path net)) ])
    ~lambda specs =
  let auction = ref None in
  let make_arrive net =
    let tenants = Flexnet.tenants_exn net in
    let au = Market.Auction.create ~tenants ~path:(book_path net) () in
    auction := Some au;
    let sim = Flexnet.sim net in
    fun spec ->
      match
        Market.Tenant.create
          ~sla:
            (if spec.cs_protected then Market.Tenant.Protected
             else Market.Tenant.Best_effort)
          ~budget:spec.cs_budget ~weight:spec.cs_weight spec.cs_program
      with
      | Error _ -> ()
      | Ok mt ->
        Market.Auction.submit au mt;
        Netsim.Sim.after sim spec.cs_sojourn (fun () ->
            Market.Auction.withdraw au spec.cs_name)
  in
  let before_run (net, horizon) =
    let sim = Flexnet.sim net in
    let au = Option.get !auction in
    Netsim.Sim.every sim ~period:0.1 (fun () ->
        ignore (Market.Auction.clear au);
        Netsim.Sim.now sim < horizon)
  in
  let net, arrivals, (mean_util, peak_util), (lc, p50, p90, p99), wall =
    churn_run ?switches ~lambda ~specs ~make_arrive ~before_run ()
  in
  let m = Obs.Scope.metrics (Flexnet.obs net) in
  let c name = Obs.Metrics.get_counter m name in
  let au = Option.get !auction in
  let converged =
    List.length (List.filter (fun r -> r.Market.Auction.rd_converged)
                   (Market.Auction.rounds au))
  in
  ( { ch_arrivals = arrivals;
      ch_admitted = c "market.admitted";
      ch_rejected = c "market.rejected";
      ch_deferred = c "market.deferred";
      ch_preempted = c "market.preempted";
      ch_departed = (Flexnet.tenants_exn net).Control.Tenants.departed;
      ch_mean_util = mean_util; ch_peak_util = peak_util;
      ch_lat_count = lc; ch_lat_p50 = p50; ch_lat_p90 = p90;
      ch_lat_p99 = p99; ch_rounds = c "market.rounds";
      ch_converged = converged; ch_wall_s = wall },
    au )

(* Fixed-threshold churn: the baseline admission policy E18 compares
   the market against. An arrival is admitted through the ordinary
   pipeline iff no path device is loaded beyond [threshold]; nothing
   is ever preempted; departures fire on the sojourn timer. *)
let run_threshold_churn ?switches ?(threshold = 0.70) ~lambda specs =
  let admitted = ref 0 and rejected = ref 0 in
  let make_arrive net =
    let sim = Flexnet.sim net in
    let bottleneck () =
      List.fold_left
        (fun acc d -> Float.max acc (Targets.Device.utilization d))
        0. (Flexnet.path net)
    in
    fun spec ->
      if bottleneck () >= threshold then incr rejected
      else
        match Flexnet.add_tenant net spec.cs_program with
        | Ok _ ->
          incr admitted;
          Netsim.Sim.after sim spec.cs_sojourn (fun () ->
              ignore (Flexnet.remove_tenant net spec.cs_name))
        | Error _ -> incr rejected
  in
  let net, arrivals, (mean_util, peak_util), (lc, p50, p90, p99), wall =
    churn_run ?switches ~lambda ~specs ~make_arrive ()
  in
  { ch_arrivals = arrivals; ch_admitted = !admitted;
    ch_rejected = !rejected; ch_deferred = 0; ch_preempted = 0;
    ch_departed = (Flexnet.tenants_exn net).Control.Tenants.departed;
    ch_mean_util = mean_util; ch_peak_util = peak_util;
    ch_lat_count = lc; ch_lat_p50 = p50; ch_lat_p90 = p90;
    ch_lat_p99 = p99; ch_rounds = 0; ch_converged = 0; ch_wall_s = wall }

(* A wired linear network (h0 - switches - h1) with devices of [arch];
   returns (sim, topo, h0, h1, devices, wireds, received counter). *)
let wired_linear ?(arch = Targets.Arch.Drmt) ?(switches = 3) () =
  let sim = Netsim.Sim.create () in
  let built = Netsim.Topology.linear ~sim ~switches () in
  let topo = built.Netsim.Topology.topo in
  let h0 = List.nth built.Netsim.Topology.host_list 0 in
  let h1 = List.nth built.Netsim.Topology.host_list 1 in
  let devs =
    List.map
      (fun sw ->
        Targets.Device.create ~id:sw.Netsim.Node.name
          (Targets.Arch.profile_of_kind arch))
      built.Netsim.Topology.switch_list
  in
  let wireds =
    List.map2
      (fun sw d -> Runtime.Wiring.attach topo sw d)
      built.Netsim.Topology.switch_list devs
  in
  let received = ref 0 in
  Netsim.Node.set_handler h1 (fun _ ~in_port:_ _ -> incr received);
  (sim, topo, h0, h1, devs, wireds, received)
