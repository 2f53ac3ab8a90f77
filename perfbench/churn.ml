(* Workload [churn]: the control plane under tenant churn, on the whole
   stack with one switch.

   E18's seeded tenant mix — 60% ACLs of 64k–1M rules, 40% firewall or
   NAT, 10% Protected — arrives as a Poisson process and bids in a
   [Market.Auction] cleared every 100 ms of virtual time; sojourns are
   exponential. Constant-rate background traffic runs h0 -> h1
   throughout, and every virtual second the run applies one
   [Flexnet.patch_hitless] infrastructure patch (alternately adding and
   removing a telemetry counter) and one deploy or removal of a
   well-typed routing policy.

   Wall time is a closed loop: each control operation completes before
   the simulation advances. Certify, plan, reconfig and market clearing
   do the work; the datapath carries only light reads. *)

type cfg = {
  arrivals : int;
  lambda : float; (* arrivals per virtual second *)
  sojourn : float; (* mean tenant lifetime, virtual seconds *)
  bg_pps : float; (* background rate, virtual time *)
}

let full = { arrivals = 2000; lambda = 100.; sojourn = 4.0; bg_pps = 1000. }
let smoke = { arrivals = 60; lambda = 60.; sojourn = 4.0; bg_pps = 500. }
let clear_period = 0.1
let ops_period = 1.0
let max_deferrals = 50 (* the auction's default bound *)

(* The per-layer metrics the traced run produces. *)
let layers =
  [ "flexbpf.compile_ns"; "flexbpf.certify_ns"; "compiler.plan_ns";
    "compiler.plan_ops"; "runtime.reconfig.hitless_ms";
    "runtime.reconfig.window_s"; "runtime.reconfig.attempts";
    "runtime.reconfig.rolled_back"; "control.admit_ns"; "control.depart_ns";
    "control.outcome.admitted"; "control.outcome.rejected";
    "control.outcome.deferred"; "control.outcome.preempted";
    "control.mean_util"; "control.words_per_admit"; "control.arrivals_per_s";
    "market.clear_self_ns"; "market.tatonnement_iters";
    "market.bidders_per_round"; "market.converged_share"; "policy.compile_ns";
    "policy.fdd_nodes"; "policy.deploy_ns"; "obs.spans"; "obs.series";
    "gc.minor_collections"; "gc.major_collections" ]

type spec = {
  name : string;
  prog : Flexbpf.Ast.program;
  sojourn : float;
  budget : float;
  weight : float;
  protected : bool;
}

(* E18's tenant mix, stratified: exactly 20% firewall, 20% NAT, 60% ACL
   evenly over five sizes (64k-1M rules) and 10% Protected, with
   sojourns, budgets and weights at evenly spaced quantiles of their E18
   distributions, dealt out by E18's fixed seed. The benchmark seed
   shuffles the arrival gaps only. *)
let shuffled rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The [i]-th of [n] evenly spaced points of (0, 1). *)
let stratum n i = (float_of_int i +. 0.5) /. float_of_int n

let exp_quantile ~mean u = -.mean *. log (1. -. u)

let workload cfg =
  let n = cfg.arrivals in
  let rng = Random.State.make [| 31 |] in
  let kind = shuffled rng n and soj = shuffled rng n and bud = shuffled rng n
  and wgt = shuffled rng n and prot = shuffled rng n in
  List.init n (fun i ->
      let idx = i + 1 in
      let name = Printf.sprintf "tenant%d" idx in
      let k = kind.(i) * 50 / n in
      let prog =
        if k < 10 then Apps.Firewall.program ~owner:name ~boundary:100 ()
        else if k < 20 then
          Apps.Nat.program ~owner:name ~public:(900 + idx) ~subnet_lo:10
            ~subnet_hi:20 ()
        else Apps.Acl.program ~owner:name ~size:(65536 lsl ((k - 20) / 6)) ()
      in
      { name; prog;
        sojourn = exp_quantile ~mean:cfg.sojourn (stratum n soj.(i));
        budget = 4. +. (12. *. stratum n bud.(i));
        weight = 1.2 +. (4. *. stratum n wgt.(i));
        protected = prot.(i) * 10 < n })

let telemetry_on =
  Flexbpf.Patch.v "perfbench-telemetry-on"
    [ Flexbpf.Patch.Add_map Apps.Telemetry.flow_bytes_map;
      Flexbpf.Patch.Add_element
        (Flexbpf.Patch.Before (Flexbpf.Patch.Sel_name "ipv4_lpm"),
         Apps.Telemetry.flow_counter) ]

let telemetry_off =
  Flexbpf.Patch.v "perfbench-telemetry-off"
    [ Flexbpf.Patch.Remove_element
        (Flexbpf.Patch.Sel_name (Flexbpf.Ast.element_name Apps.Telemetry.flow_counter));
      Flexbpf.Patch.Remove_map Apps.Telemetry.flow_bytes_map.Flexbpf.Ast.map_name ]

(* Destination routing on switch 0, written against the real ports so
   background traffic keeps its path while the policy is live. *)
let routing_policy net =
  let topo = Flexnet.topo net in
  let s0 = List.hd net.Flexnet.switch_nodes in
  let h0 = (Flexnet.h0 net).Netsim.Node.id and h1 = (Flexnet.h1 net).Netsim.Node.id in
  let port dst =
    match Netsim.Topology.next_hops topo ~src:s0.Netsim.Node.id ~dst with
    | p :: _ -> p
    | [] -> failwith "churn: no route on s0"
  in
  Policy.Syntax.parse
    (Printf.sprintf
       "(filter sw = 0 and ip.dst = %d; fwd %d) + (filter sw = 0 and ip.dst = %d; fwd %d)"
       h1 (port h1) h0 (port h0))

type counters = {
  mutable bg_sent : int;
  mutable bg_delivered : int;
  mutable mixed : int; (* hops that saw an uncommitted program version *)
  mutable control_ops : int;
  mutable control_failed : int;
  mutable patches : int;
  mutable patches_failed : int;
  mutable window_s : float list; (* virtual reconfiguration windows *)
  mutable hitless_ns : float list;
  mutable deploy_ns : float list;
  mutable policy_compile_ns : float list;
  mutable fdd_nodes : int;
  mutable depart_ns : float list;
  mutable clear_self_ns : float list;
  mutable certify_ns : float list;
  mutable plan_ns : float list;
  mutable plan_ops : int list;
  mutable compile_ns : float list;
  mutable replay_ns : float; (* excluded from the traced run's wall time *)
  mutable admit_words : float;
}

type world = {
  net : Flexnet.t;
  au : Market.Auction.t;
  horizon : float;
  admit_ns : Meter.Samples.t; (* raw samples, one per admission attempt *)
  c : counters;
  util : float ref * int ref; (* bottleneck utilization sum, samples *)
  outcome_log : Buffer.t; (* the seeded outcome sequence *)
}

let setup ctx cfg ~order =
  let admit_ns = Meter.Samples.create () in
  let net = Flexnet.create ~arch:Targets.Arch.Drmt ~switches:1 () in
  (match Flexnet.deploy_infrastructure net with
   | Ok _ -> ()
   | Error e -> failwith ("churn: infrastructure deploy: " ^ e));
  let sim = Flexnet.sim net in
  let tenants = Flexnet.tenants_exn net in
  let c =
    { bg_sent = 0; bg_delivered = 0; mixed = 0; control_ops = 0;
      control_failed = 0; patches = 0; patches_failed = 0; window_s = [];
      hitless_ns = []; deploy_ns = []; policy_compile_ns = []; fdd_nodes = 0;
      depart_ns = []; clear_self_ns = []; certify_ns = []; plan_ns = [];
      plan_ops = []; compile_ns = []; replay_ns = 0.; admit_words = 0. }
  in
  (* Admission latency from raw samples: [Tenants] reads its clock once
     on entry to an admission attempt and once at its verdict. *)
  let started = ref 0L and words0 = ref 0. and open_ = ref false in
  Control.Tenants.set_clock tenants (fun () ->
      let now = Meter.now_ns () in
      if !open_ then begin
        Meter.Samples.add admit_ns (Int64.to_float (Int64.sub now !started));
        if Meter.traced ctx then
          c.admit_words <- c.admit_words +. (Meter.minor_words () -. !words0)
      end
      else begin
        started := now;
        if Meter.traced ctx then words0 := Meter.minor_words ()
      end;
      open_ := not !open_;
      Int64.to_float now *. 1e-9);
  (* Per-packet consistency: every hop must run a program version that
     was committed when a control operation returned. *)
  let wired = Array.of_list (Flexnet.wireds net) in
  let committed = Array.map (fun _ -> Hashtbl.create 64) wired in
  let commit () =
    Array.iteri
      (fun i w ->
        Hashtbl.replace committed.(i)
          (Targets.Device.version w.Runtime.Wiring.device) ())
      wired
  in
  commit ();
  Array.iteri
    (fun i w ->
      let node = w.Runtime.Wiring.node and dev = w.Runtime.Wiring.device in
      let inner = node.Netsim.Node.handler in
      node.Netsim.Node.handler <-
        (fun n ~in_port p ->
          inner n ~in_port p;
          if
            (Targets.Device.active_program dev).Flexbpf.Ast.pipeline <> []
            && not (Hashtbl.mem committed.(i) p.Netsim.Packet.epoch)
          then c.mixed <- c.mixed + 1))
    wired;
  let h1 = Flexnet.h1 net in
  let deliver = h1.Netsim.Node.handler in
  h1.Netsim.Node.handler <-
    (fun n ~in_port p ->
      c.bg_delivered <- c.bg_delivered + 1;
      deliver n ~in_port p);
  let au =
    Market.Auction.create ~max_deferrals ~tenants
      ~path:[ List.hd (List.rev (Flexnet.path net)) ] ()
  in
  let specs = workload cfg in
  (* Poisson arrivals with stratified gaps, in an order drawn from the
     seed: the horizon is the same for every seed *)
  let gaps =
    shuffled (Random.State.make [| ctx.Meter.seed; 41; order |]) cfg.arrivals
  in
  let t = ref 0.1 in
  let arrival_times =
    List.mapi
      (fun i _ ->
        t :=
          !t
          +. exp_quantile ~mean:(1. /. cfg.lambda) (stratum cfg.arrivals gaps.(i));
        !t)
      specs
  in
  let horizon = !t +. 1.0 in
  let w =
    { net; au; horizon; admit_ns; c; util = (ref 0., ref 0);
      outcome_log = Buffer.create 4096 }
  in
  let replay name f =
    let t0 = Meter.now_ns () in
    let v = Meter.span ~replayed:true ctx name f in
    let ns = Meter.ns_since t0 in
    c.replay_ns <- c.replay_ns +. ns;
    (v, ns)
  in
  (* arrivals and their sojourn timers *)
  List.iter2
    (fun spec at ->
      Netsim.Sim.at sim at (fun () ->
          match
            Market.Tenant.create
              ~sla:(if spec.protected then Market.Tenant.Protected else Market.Tenant.Best_effort)
              ~budget:spec.budget ~weight:spec.weight spec.prog
          with
          | Error _ ->
            (* every generated program certifies; anything else is a bug *)
            c.control_ops <- c.control_ops + 1;
            c.control_failed <- c.control_failed + 1
          | Ok mt ->
            Market.Auction.submit au mt;
            Netsim.Sim.after sim spec.sojourn (fun () ->
                if Market.Auction.find_admitted au spec.name <> None then begin
                  c.control_ops <- c.control_ops + 1;
                  let t0 = Meter.now_ns () in
                  Meter.span ctx "control.depart" (fun () ->
                      Market.Auction.withdraw au spec.name);
                  c.depart_ns <- Meter.ns_since t0 :: c.depart_ns;
                  commit ();
                  if Control.Tenants.find tenants spec.name <> None then
                    c.control_failed <- c.control_failed + 1
                end
                else Market.Auction.withdraw au spec.name)))
    specs arrival_times;
  (* clearing rounds *)
  let deferrals = Hashtbl.create 256 in
  let by_name = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_name s.name s) specs;
  let path = Flexnet.path net in
  let tail = List.hd (List.rev path) in
  Netsim.Sim.every sim ~period:clear_period (fun () ->
      let snaps =
        if Meter.traced ctx then Compiler.Placement.default_snaps path else []
      in
      let before = Meter.Samples.length admit_ns in
      let t0 = Meter.now_ns () in
      let rd =
        Meter.span ctx "market.clear"
          ~counters:(fun () ->
            let m = Obs.Scope.metrics (Flexnet.obs net) in
            List.map
              (fun n -> (n, float_of_int (Obs.Metrics.get_counter m n)))
              [ "market.admitted"; "market.deferred"; "market.preempted";
                "market.rejected"; "market.rounds" ]
            @ List.map
                (fun o ->
                  ( "tenants.outcome." ^ o,
                    float_of_int
                      (Obs.Metrics.get_counter m ~labels:[ ("outcome", o) ]
                         "tenants.outcome") ))
                [ "admitted"; "rejected"; "deferred"; "preempted" ])
          (fun () -> Market.Auction.clear au)
      in
      let clear_ns = Meter.ns_since t0 in
      commit ();
      let admits = ref 0. in
      for i = before to Meter.Samples.length admit_ns - 1 do
        admits := !admits +. admit_ns.Meter.Samples.data.(i)
      done;
      c.clear_self_ns <- (clear_ns -. !admits) :: c.clear_self_ns;
      List.iter
        (fun n ->
          Hashtbl.replace deferrals n
            (1 + Option.value ~default:0 (Hashtbl.find_opt deferrals n)))
        rd.Market.Auction.rd_deferred;
      (* a reject is a capacity or price decision when the bidder hit the
         deferral bound or fits no book at all; anything else failed *)
      let caps =
        List.map (fun (_, (_, cap)) -> cap) (Market.Auction.occupancy au)
      in
      List.iter
        (fun n ->
          let capped =
            Option.value ~default:0 (Hashtbl.find_opt deferrals n) >= max_deferrals
          in
          let impossible =
            match Market.Tenant.create (Hashtbl.find by_name n).prog with
            | Ok mt ->
              not
                (List.exists
                   (fun cap -> Targets.Resource.fits mt.Market.Tenant.mt_footprint cap)
                   caps)
            | Error _ -> false
          in
          if not (capped || impossible) then
            c.control_failed <- c.control_failed + 1)
        rd.Market.Auction.rd_rejected;
      Buffer.add_string w.outcome_log
        (Printf.sprintf "r%d a=%s d=%s p=%s x=%s\n" rd.Market.Auction.rd_index
           (String.concat "," rd.Market.Auction.rd_admitted)
           (String.concat "," rd.Market.Auction.rd_deferred)
           (String.concat "," rd.Market.Auction.rd_preempted)
           (String.concat "," rd.Market.Auction.rd_rejected));
      (* traced run: replay the pure inner layers on the same input *)
      if Meter.traced ctx then begin
        List.iter
          (fun n ->
            let prog = (Hashtbl.find by_name n).prog in
            let _, ns = replay "flexbpf.certify" (fun () -> Flexbpf.Analysis.certify prog) in
            c.certify_ns <- ns :: c.certify_ns;
            let planned, ns =
              replay "compiler.plan" (fun () ->
                  Compiler.Placement.plan_on ~snaps ~path prog)
            in
            c.plan_ns <- ns :: c.plan_ns;
            match planned with
            | Ok p -> c.plan_ops <- Compiler.Plan.size p.Compiler.Placement.pln_plan :: c.plan_ops
            | Error _ -> ())
          rd.Market.Auction.rd_admitted;
        if rd.Market.Auction.rd_admitted <> [] then begin
          let _, ns =
            replay "flexbpf.compile" (fun () ->
                Flexbpf.Compile.compile (Targets.Device.env tail)
                  (Targets.Device.program tail))
          in
          c.compile_ns <- ns :: c.compile_ns
        end
      end;
      Netsim.Sim.now sim < horizon);
  (* hitless infrastructure patches and policy deploy/remove *)
  let pol = routing_policy net in
  let deployed = ref None in
  let next_patch = ref telemetry_on in
  Netsim.Sim.every sim ~period:ops_period (fun () ->
      let patch = !next_patch in
      c.control_ops <- c.control_ops + 1;
      c.patches <- c.patches + 1;
      let issued = Netsim.Sim.now sim in
      let t0 = Meter.now_ns () in
      (match
         Meter.span ctx "runtime.patch_hitless" (fun () ->
             Flexnet.patch_hitless net patch ~on_done:(fun _ ->
                 c.window_s <- (Netsim.Sim.now sim -. issued) :: c.window_s))
       with
       | Ok _ ->
         next_patch := if patch == telemetry_on then telemetry_off else telemetry_on
       | Error _ ->
         c.patches_failed <- c.patches_failed + 1;
         c.control_failed <- c.control_failed + 1);
      c.hitless_ns <- Meter.ns_since t0 :: c.hitless_ns;
      commit ();
      c.control_ops <- c.control_ops + 1;
      (match !deployed with
       | None ->
         if Meter.traced ctx then begin
           let r, ns =
             replay "policy.compile" (fun () ->
                 Policy.Compile.compile ~name:"perfbench-route"
                   ~devices:[ ("s0", 0L) ] pol)
           in
           c.policy_compile_ns <- ns :: c.policy_compile_ns;
           (match (r, Policy.Compile.fdd_of pol) with
            | Ok _, Ok fdd -> c.fdd_nodes <- Policy.Fdd.size fdd
            | _ -> ())
         end;
         let t0 = Meter.now_ns () in
         (match
            Meter.span ctx "policy.deploy" (fun () ->
                Flexnet.deploy_policy ~name:"perfbench-route" net pol)
          with
          | Ok dp -> deployed := Some dp
          | Error _ -> c.control_failed <- c.control_failed + 1);
         c.deploy_ns <- Meter.ns_since t0 :: c.deploy_ns
       | Some dp ->
         (match
            Meter.span ctx "policy.remove" (fun () -> Flexnet.remove_policy net dp)
          with
          | Ok () -> deployed := None
          | Error _ -> c.control_failed <- c.control_failed + 1));
      commit ();
      Netsim.Sim.now sim < horizon);
  (* background traffic, drained before the horizon *)
  let h0 = (Flexnet.h0 net).Netsim.Node.id and h1_id = h1.Netsim.Node.id in
  let bg = Netsim.Traffic.create sim in
  Netsim.Traffic.cbr bg ~rate_pps:cfg.bg_pps ~start:0.05 ~stop:(horizon -. 0.5)
    ~send:(fun () ->
      c.bg_sent <- c.bg_sent + 1;
      Flexnet.send_h0 net
        (Netsim.Traffic.tcp_packet ~src:h0 ~dst:h1_id ~sport:1234 ~dport:80
           ~born:(Netsim.Sim.now sim) ()));
  (* bottleneck utilization after warm-up, in virtual time *)
  let warmup = 0.2 *. horizon in
  let sum, n = w.util in
  Netsim.Sim.every sim ~period:0.05 (fun () ->
      if Netsim.Sim.now sim >= warmup then begin
        sum :=
          !sum
          +. List.fold_left
               (fun acc d -> Float.max acc (Targets.Device.utilization d))
               0. path;
        incr n
      end;
      Netsim.Sim.now sim < horizon);
  w

let outcome_counter w o =
  Obs.Metrics.get_counter
    (Obs.Scope.metrics (Flexnet.obs w.net))
    ~labels:[ ("outcome", o) ] "tenants.outcome"

let mean_util w =
  let sum, n = w.util in
  !sum /. float_of_int (max 1 !n)

let digest_of w =
  Buffer.contents w.outcome_log
  ^ Printf.sprintf "util=%.17g delivered=%d sent=%d outcomes=%d/%d/%d/%d\n"
      (mean_util w) w.c.bg_delivered w.c.bg_sent (outcome_counter w "admitted")
      (outcome_counter w "rejected") (outcome_counter w "deferred")
      (outcome_counter w "preempted")

(* What one arrival order, or a repetition of them, leaves behind; each
   world is dropped after its run so the heap holds one network at a
   time. *)
type rep = {
  wall_ns : float; (* Flexnet.run, replays excluded *)
  words : float;
  gc_minor : int;
  gc_major : int;
  delivered : int;
  failed : int;
  attempted : int; (* background packets, admissions, harness operations *)
  admit_us : float list; (* raw samples, one per admission attempt *)
  digest : string;
}

let run_order ctx w =
  let w0 = Meter.minor_words () in
  let g0min, g0maj = Meter.gc_counts () in
  let t0 = Meter.now_ns () in
  Meter.span ctx "churn.run" (fun () -> Flexnet.run w.net ~until:w.horizon);
  let wall = Meter.ns_since t0 -. w.c.replay_ns in
  let words = Meter.minor_words () -. w0 in
  let g1min, g1maj = Meter.gc_counts () in
  let c = w.c in
  { wall_ns = wall; words; gc_minor = g1min - g0min; gc_major = g1maj - g0maj;
    delivered = c.bg_delivered;
    failed = c.bg_sent - c.bg_delivered + c.mixed + c.control_failed;
    attempted = c.bg_sent + c.control_ops + Meter.Samples.length w.admit_ns;
    admit_us = List.map (fun ns -> ns /. 1000.) (Meter.Samples.to_list w.admit_ns);
    digest = digest_of w }

let add a b =
  { wall_ns = a.wall_ns +. b.wall_ns; words = a.words +. b.words;
    gc_minor = a.gc_minor + b.gc_minor; gc_major = a.gc_major + b.gc_major;
    delivered = a.delivered + b.delivered; failed = a.failed + b.failed;
    attempted = a.attempted + b.attempted;
    admit_us = List.rev_append b.admit_us a.admit_us;
    digest = a.digest ^ b.digest }

(* A repetition runs this many arrival orders drawn from the seed, back
   to back, and reports them together, so every repetition does the
   same work. The market's path through one order moves the work with
   the seed: with one order a repetition, words per packet (an exact
   count) read -17% to +7% of their median over five seeds and spread
   0.15 (interquartile range over median); with three, 0.03 over ten. *)
let orders = 3

let run ctx =
  let cfg = if ctx.Meter.smoke then smoke else full in
  let setup_s = ref [] in
  let setup order =
    Gc.full_major ();
    let t0 = Meter.now_ns () in
    let w = setup ctx cfg ~order in
    setup_s := Meter.s_since t0 :: !setup_s;
    w
  in
  (* the first world is read once and then dropped, so the heap holds
     one network at a time *)
  let f = float_of_int in
  let observe w =
    let attempts = outcome_counter w "admitted" + outcome_counter w "rejected" in
    let c = w.c in
    let rounds = Market.Auction.rounds w.au in
    let nr = f (max 1 (List.length rounds)) in
    let avg_i g = f (List.fold_left (fun a r -> a + g r) 0 rounds) /. nr in
    let m = Obs.Scope.metrics (Flexnet.obs w.net) in
    let layers =
      [ ("flexbpf.compile_ns", Meter.median c.compile_ns);
        ("flexbpf.certify_ns", Meter.median c.certify_ns);
        ("compiler.plan_ns", Meter.median c.plan_ns);
        ("compiler.plan_ops", Meter.mean (List.map f c.plan_ops));
        ("runtime.reconfig.hitless_ms", Meter.median c.hitless_ns /. 1e6);
        ("runtime.reconfig.window_s", Meter.median c.window_s);
        ("runtime.reconfig.attempts", f c.patches);
        ("runtime.reconfig.rolled_back", f c.patches_failed);
        ("control.admit_ns", Meter.median (Meter.Samples.to_list w.admit_ns));
        ("control.depart_ns", Meter.median c.depart_ns);
        ("control.outcome.admitted", f (outcome_counter w "admitted"));
        ("control.outcome.rejected", f (outcome_counter w "rejected"));
        ("control.outcome.deferred", f (outcome_counter w "deferred"));
        ("control.outcome.preempted", f (outcome_counter w "preempted"));
        ("control.mean_util", mean_util w);
        ("control.words_per_admit", c.admit_words /. f (max 1 attempts));
        ("market.clear_self_ns", Meter.median c.clear_self_ns);
        ("market.tatonnement_iters", avg_i (fun r -> r.Market.Auction.rd_iterations));
        ("market.bidders_per_round", avg_i (fun r -> r.Market.Auction.rd_bidders));
        ("market.converged_share",
         avg_i (fun r -> if r.Market.Auction.rd_converged then 1 else 0));
        ("policy.compile_ns", Meter.median c.policy_compile_ns);
        ("policy.fdd_nodes", f c.fdd_nodes);
        ("policy.deploy_ns", Meter.median c.deploy_ns);
        ("obs.spans", f (Obs.Trace.count (Obs.Scope.trace (Flexnet.obs w.net))));
        ("obs.series", f (List.length (Obs.Metrics.to_list m))) ]
    in
    let facts =
      [ ("admission_samples_first_order", string_of_int (Meter.Samples.length w.admit_ns));
        ("admission_attempts_first_order", string_of_int attempts);
        ("arrivals_per_order", string_of_int cfg.arrivals);
        ("background_sent", string_of_int c.bg_sent);
        ("background_delivered", string_of_int c.bg_delivered);
        ("mixed_version_hops", string_of_int c.mixed);
        ("control_failed", string_of_int c.control_failed);
        ("mean_util", Printf.sprintf "%.6f" (mean_util w)) ]
    in
    (layers, facts)
  in
  let first = ref ([], []) and heap_mb = ref 0. in
  let reps =
    Meter.repeat_for ~seconds:ctx.Meter.seconds (fun i ->
        Option.iter (fun tr -> Meter.Trace.set_run tr i) ctx.Meter.tracer;
        let parts =
          List.init orders (fun order ->
              let w = setup order in
              let r = run_order ctx w in
              if i = 0 && order = 0 then first := observe w;
              r)
        in
        if i = 0 then heap_mb := Meter.heap_peak_mb ();
        List.fold_left add (List.hd parts) (List.tl parts))
  in
  (* set-up takes milliseconds: time it many times *)
  for i = List.length !setup_s to 14 do
    ignore (setup (i mod orders))
  done;
  let layers, facts = !first and rep0 = List.hd reps in
  let consistent = List.for_all (fun r -> r.digest = rep0.digest) reps in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 reps in
  let attempted = List.fold_left (fun a r -> a + r.attempted) 0 reps in
  let per_rep g = Meter.median (List.map g reps) in
  let admit_us = List.concat_map (fun r -> r.admit_us) reps in
  { Meter.attempted; failed; consistent;
    e2e =
      [ ("pkts_per_s", per_rep (fun r -> f r.delivered /. (r.wall_ns *. 1e-9)));
        ("words_per_pkt", per_rep (fun r -> r.words /. f r.delivered));
        ("op_us_p50", Meter.quantile admit_us 0.5);
        ("op_us_p99", Meter.quantile admit_us 0.99);
        ("setup_s", Meter.median !setup_s); ("heap_peak_mb", !heap_mb) ];
    layers =
      (if Meter.traced ctx then
         layers
         @ [ ("control.arrivals_per_s",
              per_rep (fun r -> f (orders * cfg.arrivals) /. (r.wall_ns *. 1e-9)));
             ("gc.minor_collections", f rep0.gc_minor);
             ("gc.major_collections", f rep0.gc_major) ]
       else []);
    digest = Digest.to_hex (Digest.string rep0.digest);
    facts =
      [ ("churn_reps", string_of_int (List.length reps));
        ("arrival_orders_per_rep", string_of_int orders);
        ("window_pkts_per_s",
         String.concat ","
           (List.map (fun r -> Printf.sprintf "%.0f" (f r.delivered /. (r.wall_ns *. 1e-9))) reps)) ]
      @ facts
      @ [ ("words_per_rep",
           String.concat "," (List.map (fun r -> Printf.sprintf "%.0f" r.words) reps)) ] }
