(** Domain-sharded simulation with deterministic cross-shard merge.
    See the interface for the model; implementation notes inline. *)

(* ------------------------------------------------------------------ *)
(* Network specification                                              *)
(* ------------------------------------------------------------------ *)

module Spec = struct
  type node = int

  type link = {
    lk_a : node;
    lk_a_port : int;
    lk_b : node;
    lk_b_port : int;
    lk_bandwidth : float;
    lk_delay : float;
    lk_queue_capacity : int;
    lk_ecn_threshold : int;
  }

  type t = {
    mutable sp_names : string array;
    mutable sp_kinds : Node.kind array;
    mutable sp_ports : int array; (* next free port per node *)
    mutable sp_n : int;
    mutable sp_links : link list; (* reversed *)
  }

  let create () =
    { sp_names = Array.make 16 ""; sp_kinds = Array.make 16 Node.Host;
      sp_ports = Array.make 16 0; sp_n = 0; sp_links = [] }

  let ensure t =
    let cap = Array.length t.sp_names in
    if t.sp_n = cap then begin
      let grow a fill =
        let a' = Array.make (cap * 2) fill in
        Array.blit a 0 a' 0 cap;
        a'
      in
      t.sp_names <- grow t.sp_names "";
      t.sp_kinds <- grow t.sp_kinds Node.Host;
      t.sp_ports <- grow t.sp_ports 0
    end

  let add_node t ~name ~kind =
    ensure t;
    let id = t.sp_n in
    t.sp_names.(id) <- name;
    t.sp_kinds.(id) <- kind;
    t.sp_ports.(id) <- 0;
    t.sp_n <- id + 1;
    id

  let add_host t name = add_node t ~name ~kind:Node.Host
  let add_switch t name = add_node t ~name ~kind:Node.Switch
  let node_count t = t.sp_n

  let check t id =
    if id < 0 || id >= t.sp_n then
      invalid_arg (Printf.sprintf "Shard.Spec: unknown node %d" id)

  let name t id = check t id; t.sp_names.(id)
  let kind t id = check t id; t.sp_kinds.(id)
  let links t = List.rev t.sp_links

  (* Ports are assigned here, at declaration time, so a monolithic and a
     sharded build of the same spec agree on every port number — the
     same discipline as [Topology.next_free_port]. *)
  let connect ?(bandwidth = 10e9) ?(delay = 1e-6) ?(queue_capacity = 256)
      ?(ecn_threshold = 0) t a b =
    check t a;
    check t b;
    let pa = t.sp_ports.(a) and pb = t.sp_ports.(b) in
    t.sp_ports.(a) <- pa + 1;
    t.sp_ports.(b) <- pb + 1;
    t.sp_links <-
      { lk_a = a; lk_a_port = pa; lk_b = b; lk_b_port = pb;
        lk_bandwidth = bandwidth; lk_delay = delay;
        lk_queue_capacity = queue_capacity; lk_ecn_threshold = ecn_threshold }
      :: t.sp_links;
    (pa, pb)
end

(* ------------------------------------------------------------------ *)
(* Partitions                                                         *)
(* ------------------------------------------------------------------ *)

type partition = { pt_shards : int; pt_of : int array }

let partition spec ~shards f =
  if shards <= 0 then invalid_arg "Shard.partition: shards must be positive";
  let pt_of =
    Array.init (Spec.node_count spec) (fun i ->
        let s = f i in
        if s < 0 || s >= shards then
          invalid_arg
            (Printf.sprintf "Shard.partition: node %d mapped to shard %d of %d"
               i s shards);
        s)
  in
  { pt_shards = shards; pt_of }

let single spec = { pt_shards = 1; pt_of = Array.make (Spec.node_count spec) 0 }
let partition_shards p = p.pt_shards
let shard_of p id = p.pt_of.(id)

(* ------------------------------------------------------------------ *)
(* Mailboxes                                                          *)
(* ------------------------------------------------------------------ *)

type msg = { ms_time : float; ms_dst : int; ms_port : int; ms_pkt : Packet.t }

(* One mailbox per directed (src shard, dst shard) pair. The source
   domain appends during the run phase; the destination domain drains
   during the exchange phase; the two phases are separated by a barrier,
   so the mailbox needs no locking — the barrier's mutex publishes the
   writes. Overflow past the ring spills to a list (slower, never
   lossy); spills are counted so benchmarks can size the ring. *)
type mailbox = {
  mb_ring : msg array;
  mutable mb_n : int;
  mutable mb_spill : msg list; (* reversed *)
}

let mailbox_push mb m =
  if mb.mb_n < Array.length mb.mb_ring then begin
    mb.mb_ring.(mb.mb_n) <- m;
    mb.mb_n <- mb.mb_n + 1
  end
  else mb.mb_spill <- m :: mb.mb_spill

(* ------------------------------------------------------------------ *)
(* Built networks                                                     *)
(* ------------------------------------------------------------------ *)

type view = {
  sh_index : int;
  sh_sim : Sim.t;
  sh_nodes : Node.t option array;
}

type t = {
  t_views : view array;
  t_mail : mailbox array array; (* [src].[dst] *)
  t_lookahead : float;
  t_mail_in : int ref array; (* per-dst-shard counter handles *)
  t_mail_spill : int ref array;
}

let shards t = Array.length t.t_views
let view t i = t.t_views.(i)
let views t = Array.to_list t.t_views
let lookahead t = t.t_lookahead

let build ?(mailbox_capacity = 4096) spec part ~init =
  let n = Spec.node_count spec in
  if Array.length part.pt_of <> n then
    invalid_arg "Shard.build: partition does not match this spec";
  if mailbox_capacity <= 0 then
    invalid_arg "Shard.build: mailbox_capacity must be positive";
  let links = Spec.links spec in
  let la =
    List.fold_left
      (fun acc (lk : Spec.link) ->
        if part.pt_of.(lk.lk_a) <> part.pt_of.(lk.lk_b) then begin
          if lk.lk_delay <= 0. then
            invalid_arg
              (Printf.sprintf
                 "Shard.build: cross-shard link %s->%s has delay %g; \
                  conservative lookahead requires > 0"
                 (Spec.name spec lk.lk_a) (Spec.name spec lk.lk_b) lk.lk_delay);
          Float.min acc lk.lk_delay
        end
        else acc)
      infinity links
  in
  let views =
    Array.init part.pt_shards (fun i ->
        { sh_index = i; sh_sim = Sim.create (); sh_nodes = Array.make n None })
  in
  for id = 0 to n - 1 do
    let v = views.(part.pt_of.(id)) in
    v.sh_nodes.(id) <-
      Some
        (Node.create ~id ~name:(Spec.name spec id) ~kind:(Spec.kind spec id) ())
  done;
  let dummy =
    { ms_time = 0.; ms_dst = 0; ms_port = 0;
      ms_pkt = Packet.create ~size:0 [] }
  in
  let mail =
    Array.init part.pt_shards (fun _ ->
        Array.init part.pt_shards (fun _ ->
            { mb_ring = Array.make mailbox_capacity dummy; mb_n = 0;
              mb_spill = [] }))
  in
  (* Resolve the engine counters now, in shard order, so every build has
     the series (even at zero) and merged exports stay byte-stable. *)
  let handle name =
    Array.map
      (fun v ->
        Obs.Metrics.counter
          (Obs.Scope.metrics (Sim.obs v.sh_sim))
          ~labels:[ ("shard", string_of_int v.sh_index) ]
          name)
      views
  in
  let t =
    { t_views = views; t_mail = mail; t_lookahead = la;
      t_mail_in = handle "shard.mailbox_in";
      t_mail_spill = handle "shard.mailbox_spill" }
  in
  let wire (lk : Spec.link) u pu v pv =
    let su = part.pt_of.(u) and sv = part.pt_of.(v) in
    let vu = views.(su) in
    let un = Option.get vu.sh_nodes.(u) in
    let name = Spec.name spec u ^ "->" ^ Spec.name spec v in
    let attach ~delay ~deliver =
      let link =
        Link.create ~sim:vu.sh_sim ~name ~bandwidth:lk.lk_bandwidth ~delay
          ~queue_capacity:lk.lk_queue_capacity
          ~ecn_threshold:lk.lk_ecn_threshold ~deliver ()
      in
      Node.attach un ~port:pu link
    in
    if su = sv then
      let vn = Option.get vu.sh_nodes.(v) in
      attach ~delay:lk.lk_delay ~deliver:(fun pkt ->
          Node.receive vn ~in_port:pv pkt)
    else begin
      (* Boundary link: zero local propagation — the real latency rides
         on the message and is paid in the destination shard's timeline.
         Transmit-side behaviour (serialization, drop-tail queue, ECN,
         counters) is untouched, so link stats match a monolithic build
         exactly; and because the message arrives at least [lookahead]
         past its send time, it always lands at or after the next epoch
         window's start. *)
      let mb = mail.(su).(sv) in
      let sim = vu.sh_sim in
      let delay = lk.lk_delay in
      attach ~delay:0. ~deliver:(fun pkt ->
          mailbox_push mb
            { ms_time = Sim.now sim +. delay; ms_dst = v; ms_port = pv;
              ms_pkt = pkt })
    end
  in
  List.iter
    (fun (lk : Spec.link) ->
      wire lk lk.lk_a lk.lk_a_port lk.lk_b lk.lk_b_port;
      wire lk lk.lk_b lk.lk_b_port lk.lk_a lk.lk_a_port)
    links;
  Array.iter init views;
  t

let merged_metrics t =
  let m = Obs.Metrics.create () in
  Array.iter
    (fun v -> Obs.Metrics.merge_into ~into:m (Obs.Scope.metrics (Sim.obs v.sh_sim)))
    t.t_views;
  m

(* ------------------------------------------------------------------ *)
(* Running                                                            *)
(* ------------------------------------------------------------------ *)

type run_stats = {
  rs_events : int;
  rs_epochs : int;
  rs_domains : int;
  rs_messages : int;
  rs_spilled : int;
  rs_oversubscribed : bool;
}

(* Reusable (generation-counted) barrier. *)
module Barrier = struct
  type t = {
    m : Mutex.t;
    c : Condition.t;
    parties : int;
    mutable arrived : int;
    mutable generation : int;
  }

  let create parties =
    { m = Mutex.create (); c = Condition.create (); parties; arrived = 0;
      generation = 0 }

  let await b =
    Mutex.lock b.m;
    let gen = b.generation in
    b.arrived <- b.arrived + 1;
    if b.arrived = b.parties then begin
      b.arrived <- 0;
      b.generation <- b.generation + 1;
      Condition.broadcast b.c
    end
    else
      while b.generation = gen do
        Condition.wait b.c b.m
      done;
    Mutex.unlock b.m
end

(* The epoch loop. Every domain independently computes the same window
   decision from the shared [next] array (written only in exchange
   phases, read only between barriers), so control flow never needs a
   coordinator: all domains exit loops and take barriers in lockstep.
   Failures are published through an atomic before the barrier that
   precedes every check, giving all domains a consistent view. *)
let run_parallel t ~n_dom ~horizon ~oversubscribed =
  let n_sh = Array.length t.t_views in
  let la = t.t_lookahead in
  let next = Array.map (fun v -> Sim.next_time v.sh_sim) t.t_views in
  let dom_events = Array.make n_dom 0 in
  let dom_msgs = Array.make n_dom 0 in
  let dom_spill = Array.make n_dom 0 in
  let epochs = ref 0 in (* domain 0 only; read after join *)
  let failed : exn option Atomic.t = Atomic.make None in
  let fail e = ignore (Atomic.compare_and_set failed None (Some e)) in
  let barrier = Barrier.create n_dom in
  (* Shards round-robin over domains: the assignment affects timing
     only — all cross-shard effects flow through mailboxes drained at
     barriers, never through domain-local state. *)
  let owned d =
    let rec go i acc = if i >= n_sh then List.rev acc else go (i + n_dom) (i :: acc) in
    go d []
  in
  let exchange d s =
    let v = t.t_views.(s) in
    let out = ref [] in
    let msgs = ref 0 and spill = ref 0 in
    for src = 0 to n_sh - 1 do
      let mb = t.t_mail.(src).(s) in
      for i = 0 to mb.mb_n - 1 do
        out := mb.mb_ring.(i) :: !out
      done;
      msgs := !msgs + mb.mb_n;
      mb.mb_n <- 0;
      if mb.mb_spill <> [] then begin
        List.iter
          (fun m ->
            out := m :: !out;
            incr msgs;
            incr spill)
          (List.rev mb.mb_spill);
        mb.mb_spill <- []
      end
    done;
    (* Stable sort on delivery time: ties break by (source shard, send
       order) — both independent of how shards are packed on domains,
       which is what keeps seeded runs byte-identical for any count. *)
    let sorted =
      List.stable_sort
        (fun a b -> Float.compare a.ms_time b.ms_time)
        (List.rev !out)
    in
    List.iter
      (fun m ->
        let node =
          match v.sh_nodes.(m.ms_dst) with Some n -> n | None -> assert false
        in
        let port = m.ms_port and pkt = m.ms_pkt in
        Sim.at v.sh_sim m.ms_time (fun () -> Node.receive node ~in_port:port pkt))
      sorted;
    t.t_mail_in.(s) := !(t.t_mail_in.(s)) + !msgs;
    t.t_mail_spill.(s) := !(t.t_mail_spill.(s)) + !spill;
    dom_msgs.(d) <- dom_msgs.(d) + !msgs;
    dom_spill.(d) <- dom_spill.(d) + !spill;
    next.(s) <- Sim.next_time v.sh_sim
  in
  let body d =
    let mine = owned d in
    let rec loop () =
      if Atomic.get failed <> None then ()
      else begin
        let gmin = Array.fold_left Float.min infinity next in
        if gmin = infinity || gmin > horizon then ()
        else begin
          (* Safe window: any message sent at time tau >= gmin arrives
             at tau + delay >= gmin + lookahead >= win, i.e. at or past
             every shard's clock when it is injected at the barrier. At
             least the gmin event executes, so the loop always makes
             progress. *)
          let win = Float.min horizon (gmin +. la) in
          if d = 0 then incr epochs;
          (try
             List.iter
               (fun s ->
                 dom_events.(d) <-
                   dom_events.(d) + Sim.run ~until:win t.t_views.(s).sh_sim)
               mine
           with e -> fail e);
          Barrier.await barrier;
          if Atomic.get failed <> None then ()
          else begin
            (try List.iter (fun s -> exchange d s) mine with e -> fail e);
            Barrier.await barrier;
            loop ()
          end
        end
      end
    in
    loop ();
    (* Advance drained shards to the horizon like a monolithic run. *)
    if Atomic.get failed = None && horizon < infinity then
      List.iter
        (fun s ->
          dom_events.(d) <-
            dom_events.(d) + Sim.run ~until:horizon t.t_views.(s).sh_sim)
        mine
  in
  let doms = Array.init (n_dom - 1) (fun i -> Domain.spawn (fun () -> body (i + 1))) in
  body 0;
  Array.iter Domain.join doms;
  (match Atomic.get failed with Some e -> raise e | None -> ());
  { rs_events = Array.fold_left ( + ) 0 dom_events;
    rs_epochs = !epochs;
    rs_domains = n_dom;
    rs_messages = Array.fold_left ( + ) 0 dom_msgs;
    rs_spilled = Array.fold_left ( + ) 0 dom_spill;
    rs_oversubscribed = oversubscribed }

let run ?(domains = 1) ?until t =
  let n_sh = Array.length t.t_views in
  let horizon = match until with Some u -> u | None -> infinity in
  let n_dom = max 1 (min domains n_sh) in
  let recommended = Domain.recommended_domain_count () in
  let oversubscribed = n_dom > recommended in
  if oversubscribed then
    (* Reported out-of-band (log + run_stats), never through the shard
       registries: metric exports must stay byte-identical whatever
       hardware the run lands on. *)
    Logs.warn (fun m ->
        m
          "Shard.run: %d domains on a host recommending %d; expect no \
           speedup (results remain deterministic)"
          n_dom recommended);
  let spans =
    Array.map
      (fun v ->
        let tr = Obs.Scope.trace (Sim.obs v.sh_sim) in
        (tr, Obs.Trace.start tr ~attrs:[ ("shard", Obs.Trace.I v.sh_index) ] "shard.run"))
      t.t_views
  in
  let stats =
    if n_sh = 1 then begin
      (* A single-shard build is exactly the classic engine — this is
         the reference side of the determinism differential. *)
      let ev = Sim.run ?until t.t_views.(0).sh_sim in
      { rs_events = ev; rs_epochs = 0; rs_domains = 1; rs_messages = 0;
        rs_spilled = 0; rs_oversubscribed = oversubscribed }
    end
    else run_parallel t ~n_dom ~horizon ~oversubscribed
  in
  Array.iteri
    (fun i (tr, span) ->
      let m = Obs.Scope.metrics (Sim.obs t.t_views.(i).sh_sim) in
      Obs.Trace.finish tr
        ~attrs:
          [ ("epochs", Obs.Trace.I stats.rs_epochs);
            ("events", Obs.Trace.I (Obs.Metrics.get_counter m "sim.events"));
            ("mailbox_in", Obs.Trace.I !(t.t_mail_in.(i))) ]
        span)
    spans;
  stats

(* ------------------------------------------------------------------ *)
(* Canonical sharded topology: k-ary fat tree                         *)
(* ------------------------------------------------------------------ *)

module Fat_tree = struct
  (* Roles in the coordinate arrays. *)
  let r_host = 0
  let r_edge = 1
  let r_agg = 2
  let r_core = 3

  type net = {
    ft_k : int;
    ft_spec : Spec.t;
    ft_role : int array;
    ft_c1 : int array; (* pod (core: global index j) *)
    ft_c2 : int array; (* switch index in pod / host's edge index *)
    ft_c3 : int array; (* host index under its edge *)
    ft_hosts : int array;
    ft_switches : int;
    ft_part : partition;
  }

  let create ?(k = 4) ?(bandwidth = 10e9) ?(host_delay = 1e-6)
      ?(pod_delay = 1e-6) ?(core_delay = 25e-6) ?(queue_capacity = 256) () =
    if k < 2 || k mod 2 <> 0 then
      invalid_arg "Fat_tree.create: k must be even and >= 2";
    if core_delay <= 0. then
      invalid_arg "Fat_tree.create: core_delay must be positive (it is the lookahead)";
    let half = k / 2 in
    let n_nodes = (half * half) + (k * (half + half + (half * half))) in
    let spec = Spec.create () in
    let role = Array.make n_nodes 0 in
    let c1 = Array.make n_nodes 0 in
    let c2 = Array.make n_nodes 0 in
    let c3 = Array.make n_nodes 0 in
    let cores =
      Array.init (half * half) (fun j ->
          let id = Spec.add_switch spec (Printf.sprintf "core%d" j) in
          role.(id) <- r_core;
          c1.(id) <- j;
          id)
    in
    let aggs = Array.make_matrix k half 0 in
    let edges = Array.make_matrix k half 0 in
    let host_ids = Array.init k (fun _ -> Array.make_matrix half half 0) in
    let hosts = ref [] in
    for p = 0 to k - 1 do
      for i = 0 to half - 1 do
        let id = Spec.add_switch spec (Printf.sprintf "agg%d_%d" p i) in
        role.(id) <- r_agg;
        c1.(id) <- p;
        c2.(id) <- i;
        aggs.(p).(i) <- id
      done;
      for i = 0 to half - 1 do
        let id = Spec.add_switch spec (Printf.sprintf "edge%d_%d" p i) in
        role.(id) <- r_edge;
        c1.(id) <- p;
        c2.(id) <- i;
        edges.(p).(i) <- id
      done;
      for e = 0 to half - 1 do
        for i = 0 to half - 1 do
          let id = Spec.add_host spec (Printf.sprintf "h%d_%d_%d" p e i) in
          role.(id) <- r_host;
          c1.(id) <- p;
          c2.(id) <- e;
          c3.(id) <- i;
          host_ids.(p).(e).(i) <- id;
          hosts := id :: !hosts
        done
      done
    done;
    (* Wiring order fixes the port map that [route] relies on:
       agg<->edge mesh first (agg port = edge index, edge port = agg
       index), then hosts (edge port = half + host index, host port 0),
       then cores (core port = pod, agg port = half + slot). *)
    for p = 0 to k - 1 do
      for a = 0 to half - 1 do
        for e = 0 to half - 1 do
          ignore
            (Spec.connect spec ~bandwidth ~delay:pod_delay ~queue_capacity
               aggs.(p).(a) edges.(p).(e))
        done
      done;
      for e = 0 to half - 1 do
        for i = 0 to half - 1 do
          ignore
            (Spec.connect spec ~bandwidth ~delay:host_delay ~queue_capacity
               host_ids.(p).(e).(i) edges.(p).(e))
        done
      done
    done;
    for j = 0 to (half * half) - 1 do
      for p = 0 to k - 1 do
        ignore
          (Spec.connect spec ~bandwidth ~delay:core_delay ~queue_capacity
             cores.(j) aggs.(p).(j / half))
      done
    done;
    let part =
      partition spec ~shards:k (fun id ->
          if role.(id) = r_core then c1.(id) mod k else c1.(id))
    in
    { ft_k = k; ft_spec = spec; ft_role = role; ft_c1 = c1; ft_c2 = c2;
      ft_c3 = c3;
      ft_hosts = Array.of_list (List.rev !hosts);
      ft_switches = (half * half) + (k * k);
      ft_part = part }

  let spec net = net.ft_spec
  let pods_partition net = net.ft_part
  let k net = net.ft_k
  let hosts net = net.ft_hosts
  let switch_count net = net.ft_switches

  let pod_of_host net h =
    if h < 0 || h >= Array.length net.ft_role || net.ft_role.(h) <> r_host then
      invalid_arg "Fat_tree.pod_of_host: not a host";
    net.ft_c1.(h)

  let pod_hosts net p =
    Array.of_list
      (List.filter (fun h -> net.ft_c1.(h) = p) (Array.to_list net.ft_hosts))

  let route net ~node ~dst pkt =
    if dst < 0 || dst >= Array.length net.ft_role || net.ft_role.(dst) <> r_host
    then -1
    else begin
      let half = net.ft_k / 2 in
      let dp = net.ft_c1.(dst) and de = net.ft_c2.(dst) and di = net.ft_c3.(dst) in
      match net.ft_role.(node) with
      | 0 (* host *) -> 0
      | 1 (* edge *) ->
        if net.ft_c1.(node) = dp && net.ft_c2.(node) = de then half + di
        else Packet.flow_hash pkt mod half
      | 2 (* agg *) ->
        if net.ft_c1.(node) = dp then de
        else half + (Packet.flow_hash pkt mod half)
      | _ (* core *) -> dp
    end

  let install net view ~on_switch ~on_deliver =
    Array.iteri
      (fun id slot ->
        match slot with
        | None -> ()
        | Some node ->
          if net.ft_role.(id) = r_host then
            Node.set_handler node (fun n ~in_port:_ pkt -> on_deliver n pkt)
          else
            Node.set_handler node (fun n ~in_port:_ pkt ->
                on_switch n pkt;
                let dst = Int64.to_int (Packet.field_default pkt "ipv4" "dst" (-1L)) in
                let port = route net ~node:id ~dst pkt in
                if port >= 0 then Node.send n ~port pkt
                else n.Node.dropped <- n.Node.dropped + 1))
      view.sh_nodes
end
