(* Fault-injection tests: the seeded injector itself (links, dRPC,
   device crashes), the retry machinery it exercises (dRPC backoff,
   reconfiguration re-drive/rollback), and the control-plane reactions
   (replication rejoin, controller re-resolution). The headline qcheck
   property is the paper's old-XOR-new guarantee under arbitrary seeded
   fault plans: a reconfiguration either completes or rolls every
   touched device back — no device is ever left mid-update. *)

open Flexbpf.Builder

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let to_alcotest = QCheck_alcotest.to_alcotest

(* -- The injector is deterministic and glob matching behaves ------------- *)

let test_glob () =
  check "exact" true (Netsim.Faults.glob_matches "heartbeat" "heartbeat");
  check "star" true (Netsim.Faults.glob_matches "*" "anything");
  check "prefix" true (Netsim.Faults.glob_matches "s1->*" "s1->s2");
  check "no match" false (Netsim.Faults.glob_matches "s1->*" "s2->s1");
  check "infix" true (Netsim.Faults.glob_matches "*->s1" "s0->s1")

let drop_counts ~seed =
  let sim = Netsim.Sim.create () in
  let faults =
    Netsim.Faults.create ~sim ~seed
      [ Netsim.Faults.Drpc_window
          { service = "*"; start = 0.; stop = 10.; drop_prob = 0.5 } ]
  in
  List.init 64 (fun _ ->
      match Netsim.Faults.rpc_decision faults ~service:"svc" with
      | `Drop -> 1
      | `Deliver -> 0)

let test_deterministic_decisions () =
  Alcotest.(check (list int))
    "same seed, same drop sequence" (drop_counts ~seed:42) (drop_counts ~seed:42);
  check "different seeds diverge" true
    (drop_counts ~seed:42 <> drop_counts ~seed:43)

(* -- Link faults: loss, extra delay -------------------------------------- *)

let linear_hosts () =
  let sim = Netsim.Sim.create () in
  let built = Netsim.Topology.linear ~sim ~switches:1 () in
  let topo = built.Netsim.Topology.topo in
  List.iter
    (fun sw ->
      Netsim.Node.set_handler sw (Netsim.Topology.forwarding_handler topo))
    built.Netsim.Topology.switch_list;
  let h0 = List.nth built.Netsim.Topology.host_list 0 in
  let h1 = List.nth built.Netsim.Topology.host_list 1 in
  (sim, built, h0, h1)

let test_link_loss_window () =
  let sim, built, h0, h1 = linear_hosts () in
  let received = ref 0 in
  Netsim.Node.set_handler h1 (fun _ ~in_port:_ _ -> incr received);
  let faults =
    Netsim.Faults.create ~sim ~seed:5
      [ Netsim.Faults.Link_window
          { link = "*"; start = 0.1; stop = 0.2;
            what = Netsim.Faults.Loss 1.0 } ]
  in
  List.iter
    (Netsim.Faults.bind_node_links faults)
    (built.Netsim.Topology.host_list @ built.Netsim.Topology.switch_list);
  let sent = ref 0 in
  let gen = Netsim.Traffic.create sim in
  Netsim.Traffic.cbr gen ~rate_pps:1000. ~start:0. ~stop:0.3 ~send:(fun () ->
      incr sent;
      Netsim.Node.send h0 ~port:0
        (Netsim.Traffic.tcp_packet ~src:h0.Netsim.Node.id
           ~dst:h1.Netsim.Node.id ~sport:1 ~dport:2
           ~born:(Netsim.Sim.now sim) ()));
  ignore (Netsim.Sim.run sim);
  let lost = !sent - !received in
  (* p=1.0 over a 100ms window at 1kpps: the window's packets die *)
  check "loss confined to the window" true (lost >= 90 && lost <= 110);
  check "loss counted as injected" true
    (Obs.Metrics.get_counter
       (Netsim.Faults.counters faults)
       "faults.link.loss_windows"
     > 0)

let test_link_extra_delay () =
  let sim, built, h0, h1 = linear_hosts () in
  let arrivals = ref [] in
  Netsim.Node.set_handler h1 (fun _ ~in_port:_ _ ->
      arrivals := Netsim.Sim.now sim :: !arrivals);
  let faults =
    Netsim.Faults.create ~sim ~seed:5
      [ Netsim.Faults.Link_window
          { link = "*"; start = 0.1; stop = 0.2;
            what = Netsim.Faults.Extra_delay 0.01 } ]
  in
  List.iter
    (Netsim.Faults.bind_node_links faults)
    (built.Netsim.Topology.host_list @ built.Netsim.Topology.switch_list);
  let send at =
    Netsim.Sim.at sim at (fun () ->
        Netsim.Node.send h0 ~port:0
          (Netsim.Traffic.tcp_packet ~src:h0.Netsim.Node.id
             ~dst:h1.Netsim.Node.id ~sport:1 ~dport:2 ~born:at ()))
  in
  send 0.05 (* before the window *);
  send 0.15 (* inside: both hops add 10ms *);
  ignore (Netsim.Sim.run sim);
  match List.rev !arrivals with
  | [ a1; a2 ] ->
    let base = a1 -. 0.05 and slow = a2 -. 0.15 in
    check "delay window adds latency" true (slow > base +. 0.015)
  | l -> Alcotest.failf "expected 2 arrivals, got %d" (List.length l)

(* -- dRPC: timeout, bounded backoff retries, give-up --------------------- *)

let drpc_fixture plan =
  let sim = Netsim.Sim.create () in
  let faults = Netsim.Faults.create ~sim ~seed:9 plan in
  let reg = Runtime.Drpc.create sim in
  Runtime.Drpc.set_faults reg (Some faults);
  Runtime.Drpc.register reg "echo" (fun _ -> 7L);
  (sim, reg)

let test_drpc_gives_up_after_retries () =
  let sim, reg =
    drpc_fixture
      [ Netsim.Faults.Drpc_window
          { service = "echo"; start = 0.; stop = 1e9; drop_prob = 1.0 } ]
  in
  let result = ref (Some 0L) in
  Runtime.Drpc.invoke_dataplane reg ~max_retries:3 "echo" [] ~k:(fun r ->
      result := r);
  ignore (Netsim.Sim.run sim);
  check "k sees None once the budget is spent" true (!result = None);
  let stats = Runtime.Drpc.stats reg in
  check_int "every retry was taken" 3
    (Obs.Metrics.get_counter stats "drpc.retries");
  check_int "one give-up" 1 (Obs.Metrics.get_counter stats "drpc.gaveups");
  check_int "all four attempts dropped" 4
    (Obs.Metrics.get_counter stats "drpc.drops")

let test_drpc_retry_succeeds_after_window () =
  (* the drop window closes before the retry budget runs out, so the
     invocation eventually lands: with 5us service latency the attempts
     fire at 0, 40us, 120us, 280us — a 100us window eats the first two *)
  let sim, reg =
    drpc_fixture
      [ Netsim.Faults.Drpc_window
          { service = "echo"; start = 0.; stop = 1e-4; drop_prob = 1.0 } ]
  in
  let result = ref None in
  Runtime.Drpc.invoke_dataplane reg ~max_retries:3 "echo" [] ~k:(fun r ->
      result := r);
  ignore (Netsim.Sim.run sim);
  check "retry after the window succeeds" true (!result = Some 7L);
  let stats = Runtime.Drpc.stats reg in
  check "at least one retry happened" true
    (Obs.Metrics.get_counter stats "drpc.retries" > 0);
  check_int "no give-up" 0 (Obs.Metrics.get_counter stats "drpc.gaveups")

let test_drpc_clean_fabric_no_retries () =
  let sim, reg = drpc_fixture [] in
  let result = ref None in
  Runtime.Drpc.invoke_dataplane reg "echo" [ 1L ] ~k:(fun r -> result := r);
  ignore (Netsim.Sim.run sim);
  check "delivered first try" true (!result = Some 7L);
  check_int "no retries on a clean fabric" 0
    (Obs.Metrics.get_counter (Runtime.Drpc.stats reg) "drpc.retries")

(* -- Reconfiguration: crash mid-batch, re-drive or atomic abort ---------- *)

let counter_block () = block "cnt" [ map_incr "hits" [ const 0 ] ]

let reconfig_under_crash ~restart_after ~max_retries =
  let sim = Netsim.Sim.create () in
  let built = Netsim.Topology.linear ~sim ~switches:1 () in
  let topo = built.Netsim.Topology.topo in
  let dev = Targets.Device.create ~id:"s0" Targets.Arch.drmt in
  let wireds =
    [ Runtime.Wiring.attach topo (List.hd built.Netsim.Topology.switch_list) dev ]
  in
  let faults =
    Netsim.Faults.create ~sim ~seed:3
      [ Netsim.Faults.Device_crash { device = "s0"; at = 1.02; restart_after } ]
  in
  List.iter (Runtime.Wiring.bind_faults faults) wireds;
  let counter = counter_block () in
  let prog =
    program "p" ~maps:[ map_decl ~key_arity:1 ~size:4 "hits" ] [ counter ]
  in
  let plan =
    Compiler.Plan.v "add"
      [ Compiler.Plan.Install
          { device = "s0"; element = counter; ctx = prog; order = 0 } ]
  in
  let outcome = ref None in
  Netsim.Sim.at sim 1.0 (fun () ->
      Runtime.Reconfig.execute ~sim ~mode:Runtime.Reconfig.Hitless ~wireds
        ~devices:[ dev ] plan ~max_retries ~retry_backoff:0.02
        ~on_done:(fun o -> outcome := Some o));
  ignore (Netsim.Sim.run sim);
  (dev, Option.get !outcome)

let test_reconfig_redrive_after_crash () =
  (* the device restarts quickly; the second attempt lands the batch *)
  let dev, o = reconfig_under_crash ~restart_after:0.01 ~max_retries:3 in
  check "plan completed" false o.Runtime.Reconfig.rolled_back;
  check "took a re-drive" true (o.Runtime.Reconfig.attempts > 1);
  check "element installed" true
    (List.mem "cnt" (Targets.Device.installed_names dev));
  check "device not left frozen" false (Targets.Device.is_frozen dev);
  check_int "one crash injected" 1 (Targets.Device.crashes dev)

let test_reconfig_atomic_abort () =
  (* downtime outlasts every retry: the plan must abort atomically,
     leaving the device on its old program *)
  let dev, o = reconfig_under_crash ~restart_after:30.0 ~max_retries:2 in
  check "plan rolled back" true o.Runtime.Reconfig.rolled_back;
  check "element absent after abort" false
    (List.mem "cnt" (Targets.Device.installed_names dev));
  check "device not left frozen" false (Targets.Device.is_frozen dev)

let test_reconfig_rejected_op_aborts () =
  (* the second op names a device that does not exist: the rejection is
     deterministic, so the plan aborts at once with the first op's
     install rolled back *)
  let sim = Netsim.Sim.create () in
  let built = Netsim.Topology.linear ~sim ~switches:1 () in
  let topo = built.Netsim.Topology.topo in
  let dev = Targets.Device.create ~id:"s0" Targets.Arch.drmt in
  let wireds =
    [ Runtime.Wiring.attach topo (List.hd built.Netsim.Topology.switch_list) dev ]
  in
  let counter = counter_block () in
  let other = block "other" [ set_meta "ok" (const 1) ] in
  let prog =
    program "p" ~maps:[ map_decl ~key_arity:1 ~size:4 "hits" ] [ counter; other ]
  in
  let plan =
    Compiler.Plan.v "add"
      [ Compiler.Plan.Install
          { device = "s0"; element = counter; ctx = prog; order = 0 };
        Compiler.Plan.Install
          { device = "s9"; element = other; ctx = prog; order = 1 } ]
  in
  let outcome = ref None in
  Netsim.Sim.at sim 1.0 (fun () ->
      Runtime.Reconfig.execute ~sim ~mode:Runtime.Reconfig.Hitless ~wireds
        ~devices:[ dev ] plan ~on_done:(fun o -> outcome := Some o));
  ignore (Netsim.Sim.run sim);
  match !outcome with
  | None -> Alcotest.fail "no outcome reported"
  | Some o ->
    check "plan rolled back" true o.Runtime.Reconfig.rolled_back;
    check_int "no retry of a rejected op" 1 o.Runtime.Reconfig.attempts;
    check "first op's element absent" false
      (List.mem "cnt" (Targets.Device.installed_names dev));
    check "no device left frozen" false (Targets.Device.is_frozen dev)

(* -- Deploy (not patch) under a crash: the whole placement plan comes
   from the pure planner and runs through the same engine, so a crash
   mid-deploy must leave every device hosting its full planned element
   set or none of it -------------------------------------------------- *)

let deploy_under_crash ~restart_after ~max_retries =
  let sim = Netsim.Sim.create () in
  let built = Netsim.Topology.linear ~sim ~switches:2 () in
  let topo = built.Netsim.Topology.topo in
  let devs =
    List.mapi
      (fun i _ ->
        Targets.Device.create ~id:(Printf.sprintf "s%d" i) Targets.Arch.drmt)
      built.Netsim.Topology.switch_list
  in
  let wireds =
    List.map2
      (fun n d -> Runtime.Wiring.attach topo n d)
      built.Netsim.Topology.switch_list devs
  in
  let faults =
    Netsim.Faults.create ~sim ~seed:3
      [ Netsim.Faults.Device_crash { device = "s0"; at = 1.02; restart_after } ]
  in
  List.iter (Runtime.Wiring.bind_faults faults) wireds;
  let prog =
    program "d"
      ~maps:[ map_decl ~key_arity:1 ~size:4 "hits" ]
      [ block "acl" [ set_meta "ok" (const 1) ];
        block "route" [ set_meta "port" (const 2) ];
        block "cnt" [ map_incr "hits" [ const 0 ] ] ]
  in
  let planned =
    match Compiler.Placement.plan ~path:devs prog with
    | Ok p -> p
    | Error _ -> Alcotest.fail "deploy planning failed"
  in
  let plan = planned.Compiler.Placement.pln_plan in
  let outcome = ref None in
  Netsim.Sim.at sim 1.0 (fun () ->
      Runtime.Reconfig.execute ~sim ~mode:Runtime.Reconfig.Hitless ~wireds
        ~devices:devs plan ~max_retries ~retry_backoff:0.02
        ~on_done:(fun o -> outcome := Some o));
  ignore (Netsim.Sim.run sim);
  (devs, plan, Option.get !outcome)

(* every device hosts its full planned element set or none of it, in
   agreement with the engine's verdict, and ends thawed *)
let deploy_old_xor_new devs plan (o : Runtime.Reconfig.outcome) =
  List.for_all
    (fun d ->
      let id = Targets.Device.id d in
      let planned_here =
        List.filter_map
          (function
            | Compiler.Plan.Install { device; element; _ } when device = id ->
              Some (Flexbpf.Ast.element_name element)
            | _ -> None)
          plan.Compiler.Plan.ops
      in
      let inst = Targets.Device.installed_names d in
      let present = List.filter (fun n -> List.mem n inst) planned_here in
      (not (Targets.Device.is_frozen d))
      && (present = [] || List.length present = List.length planned_here)
      && (planned_here = []
          || (present <> []) = not o.Runtime.Reconfig.rolled_back))
    devs

let test_deploy_crash_redrive () =
  let devs, plan, o = deploy_under_crash ~restart_after:0.01 ~max_retries:3 in
  check "deploy completed" false o.Runtime.Reconfig.rolled_back;
  check "took a re-drive" true (o.Runtime.Reconfig.attempts > 1);
  check "old-XOR-new on every device" true (deploy_old_xor_new devs plan o);
  check_int "one crash injected" 1 (Targets.Device.crashes (List.hd devs))

let test_deploy_crash_atomic_abort () =
  let devs, plan, o = deploy_under_crash ~restart_after:30.0 ~max_retries:2 in
  check "deploy rolled back" true o.Runtime.Reconfig.rolled_back;
  check "old-XOR-new on every device" true (deploy_old_xor_new devs plan o)

(* -- qcheck: old-XOR-new under arbitrary seeded fault plans -------------- *)

(* A random plan mixes dRPC windows, link-delay windows, and at most one
   crash of the touched device with random timing. Whatever the plan, a
   hitless reconfiguration must end with the device unfrozen and either
   fully updated (element installed, not rolled back) or fully rolled
   back (element absent) — never mid-update. Crash-free plans must
   complete on the first attempt. *)

let plan_gen =
  QCheck.Gen.(
    let* seed = int_bound 10_000 in
    let* with_crash = bool in
    let* crash_at = float_bound_inclusive 0.08 in
    let* restart_after = float_bound_inclusive 0.2 in
    let* drpc_p = float_bound_inclusive 1.0 in
    let* delay = float_bound_inclusive 0.005 in
    return (seed, with_crash, 1.0 +. crash_at, restart_after, drpc_p, delay))

let plan_arb =
  QCheck.make
    ~print:(fun (s, c, at, ra, p, d) ->
      Printf.sprintf "seed=%d crash=%b at=%.3f restart=%.3f drpc_p=%.2f delay=%.4f"
        s c at ra p d)
    plan_gen

let prop_old_xor_new (seed, with_crash, crash_at, restart_after, drpc_p, delay) =
  let sim = Netsim.Sim.create () in
  let built = Netsim.Topology.linear ~sim ~switches:1 () in
  let topo = built.Netsim.Topology.topo in
  let dev = Targets.Device.create ~id:"s0" Targets.Arch.drmt in
  let wireds =
    [ Runtime.Wiring.attach topo (List.hd built.Netsim.Topology.switch_list) dev ]
  in
  let plan_faults =
    [ Netsim.Faults.Drpc_window
        { service = "*"; start = 0.; stop = 2.; drop_prob = drpc_p };
      Netsim.Faults.Link_window
        { link = "*"; start = 0.9; stop = 1.4;
          what = Netsim.Faults.Extra_delay delay } ]
    @
    if with_crash then
      [ Netsim.Faults.Device_crash { device = "s0"; at = crash_at; restart_after } ]
    else []
  in
  let faults = Netsim.Faults.create ~sim ~seed plan_faults in
  List.iter (Runtime.Wiring.bind_faults faults) wireds;
  List.iter
    (fun w -> Netsim.Faults.bind_node_links faults w.Runtime.Wiring.node)
    wireds;
  let counter = counter_block () in
  let prog =
    program "p" ~maps:[ map_decl ~key_arity:1 ~size:4 "hits" ] [ counter ]
  in
  let plan =
    Compiler.Plan.v "add"
      [ Compiler.Plan.Install
          { device = "s0"; element = counter; ctx = prog; order = 0 } ]
  in
  let outcome = ref None in
  Netsim.Sim.at sim 1.0 (fun () ->
      Runtime.Reconfig.execute ~sim ~mode:Runtime.Reconfig.Hitless ~wireds
        ~devices:[ dev ] plan ~max_retries:2 ~retry_backoff:0.02
        ~on_done:(fun o -> outcome := Some o));
  ignore (Netsim.Sim.run sim);
  match !outcome with
  | None -> false (* the protocol must always report an outcome *)
  | Some o ->
    let installed = List.mem "cnt" (Targets.Device.installed_names dev) in
    (not (Targets.Device.is_frozen dev))
    && installed = not o.Runtime.Reconfig.rolled_back
    && (with_crash
        || (o.Runtime.Reconfig.attempts = 1
            && not o.Runtime.Reconfig.rolled_back))

let prop_fault_plan_old_xor_new =
  QCheck.Test.make ~name:"reconfig under faults: old-XOR-new, never mid-update"
    ~count:150 plan_arb prop_old_xor_new

(* -- Tiered tables: demand paging under dRPC faults ----------------------
   The promotion rides the fabric ("tier.page"), the lookup result never
   does: a dropped page may only delay residency. Whatever the drop
   pattern, forwarding must be byte-identical to the flat store. *)

let tier_table ?(size = 64) name =
  table name
    ~keys:[ exact (field "ipv4" "dst") ]
    ~actions:[ action "fwd" ~params:[ "p" ] [ forward (param "p") ] ]
    ~default:("nop", []) ~size ()

let tier_lookup dev dst =
  let pkt =
    Netsim.Packet.create
      [ Netsim.Packet.ethernet ~src:1L ~dst ();
        Netsim.Packet.ipv4 ~src:1L ~dst ();
        Netsim.Packet.tcp ~sport:1L ~dport:2L () ]
  in
  (Targets.Device.exec dev ~now_us:0L pkt).Flexbpf.Interp.verdict
    .Flexbpf.Interp.egress

(* One paging run: 8 rules, device tier capped at 2, lookups rotating
   over [ndsts] destinations at 1ms intervals, pages dropped with
   [drop_prob] while the window is open. Returns the device, the dRPC
   registry (fault counters), and how many lookups forwarded wrong. *)
let paging_scenario ~seed ~drop_prob ~stop ~ndsts ~lookups =
  let sim = Netsim.Sim.create () in
  let dev = Targets.Device.create ~id:"s0" Targets.Arch.drmt in
  let tbl = tier_table "t" in
  let prog = program "fwd" [ tbl ] in
  (match Targets.Device.install dev ~ctx:prog ~order:0 tbl with
   | Ok _ -> ()
   | Error r -> Alcotest.failf "install: %s" (Targets.Resource.reject_to_string r));
  let env = Targets.Device.env dev in
  for d = 1 to 8 do
    Flexbpf.Interp.install_rule env "t"
      (rule ~matches:[ exact_i d ] ~action:("fwd", [ 10 + d ]) ())
  done;
  Flexbpf.Interp.set_tier_capacity env "t" 2;
  let reg = Runtime.Drpc.create sim in
  let faults =
    Netsim.Faults.create ~sim ~seed
      [ Netsim.Faults.Drpc_window
          { service = Runtime.Drpc.page_service; start = 0.; stop; drop_prob } ]
  in
  Runtime.Drpc.set_faults reg (Some faults);
  Runtime.Drpc.bind_paging reg dev;
  let wrong = ref 0 in
  for i = 0 to lookups - 1 do
    let dst = 1 + (i mod ndsts) in
    Netsim.Sim.at sim
      (0.001 *. float_of_int (i + 1))
      (fun () ->
        if tier_lookup dev (Int64.of_int dst) <> Some (10 + dst) then
          incr wrong)
  done;
  ignore (Netsim.Sim.run sim);
  (dev, reg, !wrong)

let prop_dropped_pages_never_change_forwarding =
  QCheck.Test.make
    ~name:"dropped pages: host tier serves, forwarding never wrong" ~count:60
    (QCheck.make
       ~print:(fun (s, p) -> Printf.sprintf "seed=%d drop_prob=%.2f" s p)
       QCheck.Gen.(pair (int_bound 10_000) (float_bound_inclusive 1.0)))
    (fun (seed, drop_prob) ->
      let dev, reg, wrong =
        paging_scenario ~seed ~drop_prob ~stop:1e9 ~ndsts:8 ~lookups:48
      in
      let stats = Runtime.Drpc.stats reg in
      let faults_n = Obs.Metrics.get_counter stats "table.faults" in
      let drops = Obs.Metrics.get_counter stats "table.fault_drops" in
      wrong = 0 && faults_n > 0
      && List.for_all
           (fun (s : Flexbpf.Compile.tier_stat) ->
             s.Flexbpf.Compile.ts_resident <= 2
             (* promotions commit only on delivered pages *)
             && s.Flexbpf.Compile.ts_promotions <= faults_n - drops)
           (Targets.Device.tier_stats dev))

let test_paging_full_drop_host_serves () =
  let dev, reg, wrong =
    paging_scenario ~seed:7 ~drop_prob:1.0 ~stop:1e9 ~ndsts:8 ~lookups:40
  in
  check_int "every lookup forwarded correctly" 0 wrong;
  (match Targets.Device.tier_stats dev with
   | [ s ] ->
     check_int "no promotion ever commits" 0 s.Flexbpf.Compile.ts_promotions;
     check_int "nothing resident" 0 s.Flexbpf.Compile.ts_resident;
     check_int "every lookup was a host-tier fault" 40
       s.Flexbpf.Compile.ts_misses
   | _ -> Alcotest.fail "expected one tiered table");
  check "page drops counted" true
    (Obs.Metrics.get_counter (Runtime.Drpc.stats reg) "table.fault_drops" > 0)

let test_paging_recovers_after_window () =
  (* the drop window eats the first pages (host tier serves, slower);
     once it closes the hot keys promote and lookups start hitting *)
  let dev, reg, wrong =
    paging_scenario ~seed:7 ~drop_prob:1.0 ~stop:0.0045 ~ndsts:2 ~lookups:20
  in
  check_int "every lookup forwarded correctly" 0 wrong;
  (match Targets.Device.tier_stats dev with
   | [ s ] ->
     check "hot keys promoted after the window" true
       (s.Flexbpf.Compile.ts_promotions > 0);
     check "post-promotion lookups hit the device tier" true
       (s.Flexbpf.Compile.ts_hits > 0);
     check_int "both hot keys resident" 2 s.Flexbpf.Compile.ts_resident
   | _ -> Alcotest.fail "expected one tiered table");
  check "windowed drops counted" true
    (Obs.Metrics.get_counter (Runtime.Drpc.stats reg) "table.fault_drops" > 0)

(* Tiered lookups fill one key buffer per table that every packet
   reuses. Three misses are taken before any page completes, so each
   commit runs after later packets have refilled the buffer: every
   promotion must still land under the key that missed, with that
   key's winner. *)
let test_delayed_page_keeps_missed_key () =
  let sim = Netsim.Sim.create () in
  let dev = Targets.Device.create ~id:"s0" Targets.Arch.drmt in
  let tbl = tier_table "t" in
  (match Targets.Device.install dev ~ctx:(program "fwd" [ tbl ]) ~order:0 tbl with
   | Ok _ -> ()
   | Error r -> Alcotest.failf "install: %s" (Targets.Resource.reject_to_string r));
  let env = Targets.Device.env dev in
  for d = 1 to 8 do
    Flexbpf.Interp.install_rule env "t"
      (rule ~matches:[ exact_i d ] ~action:("fwd", [ 10 + d ]) ())
  done;
  Flexbpf.Interp.set_tier_capacity env "t" 4;
  let reg = Runtime.Drpc.create sim in
  Runtime.Drpc.bind_paging ~latency:1e-3 reg dev;
  List.iter
    (fun d ->
      check "miss served by the host tier" true
        (tier_lookup dev (Int64.of_int d) = Some (10 + d)))
    [ 1; 2; 3 ];
  check_int "no page has committed yet" 0
    (List.length (Targets.Device.tier_resident_keys dev "t"));
  ignore (Netsim.Sim.run sim);
  Alcotest.(check (list (list int64)))
    "each page landed under its own key"
    [ [ 1L ]; [ 2L ]; [ 3L ] ]
    (Targets.Device.tier_resident_keys dev "t"
     |> List.map Array.to_list |> List.sort compare);
  List.iter
    (fun d ->
      check "resident binding forwards to its own port" true
        (tier_lookup dev (Int64.of_int d) = Some (10 + d)))
    [ 1; 2; 3 ];
  match Targets.Device.tier_stats dev with
  | [ s ] -> check_int "the re-lookups hit the device tier" 3 s.Flexbpf.Compile.ts_hits
  | _ -> Alcotest.fail "expected one tiered table"

(* -- Move migrates both tiers; a crash mid-move keeps old-XOR-new --------- *)

let move_fixture ~crash =
  let sim = Netsim.Sim.create () in
  let built = Netsim.Topology.linear ~sim ~switches:2 () in
  let topo = built.Netsim.Topology.topo in
  let devs =
    List.mapi
      (fun i _ ->
        Targets.Device.create ~id:(Printf.sprintf "s%d" i) Targets.Arch.rmt)
      built.Netsim.Topology.switch_list
  in
  let wireds =
    List.map2
      (fun n d -> Runtime.Wiring.attach topo n d)
      built.Netsim.Topology.switch_list devs
  in
  (* oversubscribed on both ends: 150k logical rules exceed one RMT
     stage, so src and dst each get a clamped device tier *)
  let tbl = tier_table ~size:150_000 "t" in
  let prog = program "fwd" [ tbl ] in
  let src = List.nth devs 0 and dst = List.nth devs 1 in
  (match Targets.Device.install src ~ctx:prog ~order:0 tbl with
   | Ok _ -> ()
   | Error r -> Alcotest.failf "install: %s" (Targets.Resource.reject_to_string r));
  for d = 1 to 8 do
    Flexbpf.Interp.install_rule (Targets.Device.env src) "t"
      (rule ~matches:[ exact_i d ] ~action:("fwd", [ 10 + d ]) ())
  done;
  (* warm three keys into src's device tier *)
  List.iter (fun d -> ignore (tier_lookup src d)) [ 1L; 2L; 3L ];
  (match crash with
   | None -> ()
   | Some (device, restart_after) ->
     let faults =
       Netsim.Faults.create ~sim ~seed:3
         [ Netsim.Faults.Device_crash { device; at = 1.02; restart_after } ]
     in
     List.iter (Runtime.Wiring.bind_faults faults) wireds);
  let plan =
    Compiler.Plan.v "mv"
      [ Compiler.Plan.Move
          { from_device = "s0"; to_device = "s1"; element = tbl; ctx = prog;
            order = 0 } ]
  in
  let outcome = ref None in
  Netsim.Sim.at sim 1.0 (fun () ->
      Runtime.Reconfig.execute ~sim ~mode:Runtime.Reconfig.Hitless ~wireds
        ~devices:devs plan ~max_retries:2 ~retry_backoff:0.02
        ~on_done:(fun o -> outcome := Some o));
  ignore (Netsim.Sim.run sim);
  (src, dst, Option.get !outcome)

let test_move_carries_both_tiers () =
  let src, dst, o = move_fixture ~crash:None in
  check "move completed" false o.Runtime.Reconfig.rolled_back;
  check "src no longer hosts the table" false
    (List.mem "t" (Targets.Device.installed_names src));
  (* authoritative tier: the full rule set survived the move *)
  check_int "all rules on dst" 8
    (List.length (Flexbpf.Interp.table_rules (Targets.Device.env dst) "t"));
  check "dst device tier is capped" true
    (Flexbpf.Interp.tier_capacity (Targets.Device.env dst) "t" <> None);
  (* hot tier: the warmed keys crossed with the element *)
  check "hot keys carried to dst" true
    (List.length (Targets.Device.tier_resident_keys dst "t") >= 3);
  (* and forwarding on dst is intact for the whole logical rule set *)
  List.iter
    (fun d ->
      Alcotest.(check (option int))
        (Printf.sprintf "dst forwards %d" d)
        (Some (10 + d))
        (tier_lookup dst (Int64.of_int d)))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_crash_mid_move_old_xor_new () =
  (* dst dies for longer than every retry: the move must abort with the
     table — rules and tier capacity — fully back on src and nothing on
     dst *)
  let src, dst, o = move_fixture ~crash:(Some ("s1", 30.0)) in
  check "move rolled back" true o.Runtime.Reconfig.rolled_back;
  check "src still hosts the table" true
    (List.mem "t" (Targets.Device.installed_names src));
  check_int "src keeps all rules" 8
    (List.length (Flexbpf.Interp.table_rules (Targets.Device.env src) "t"));
  check "src keeps its tier capacity" true
    (Flexbpf.Interp.tier_capacity (Targets.Device.env src) "t" <> None);
  check "dst hosts nothing" true (Targets.Device.installed_names dst = []);
  check "dst has no tier capacity" true
    (Flexbpf.Interp.tier_capacity (Targets.Device.env dst) "t" = None);
  check "neither device left frozen" false
    (Targets.Device.is_frozen src || Targets.Device.is_frozen dst);
  (* src still forwards the whole rule set after the abort *)
  List.iter
    (fun d ->
      Alcotest.(check (option int))
        (Printf.sprintf "src forwards %d" d)
        (Some (10 + d))
        (tier_lookup src (Int64.of_int d)))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* -- Replication: failover on crash, rejoin + resync on restart ---------- *)

let counting_device id =
  let dev = Targets.Device.create ~id Targets.Arch.drmt in
  let b = block "cnt" [ map_incr "state" [ field "ipv4" "src" ] ] in
  let prog =
    program "p" ~maps:[ map_decl ~key_arity:1 ~size:256 "state" ] [ b ]
  in
  ignore (Targets.Device.install dev ~ctx:prog ~order:0 b);
  dev

let test_replication_failover_and_rejoin () =
  let sim = Netsim.Sim.create () in
  let primary = counting_device "primary" in
  let backup = counting_device "backup" in
  let group =
    Control.Replication.create ~sim ~map_name:"state" ~primary
      ~backups:[ backup ] ~period:0.05
  in
  let faults =
    Netsim.Faults.create ~sim ~seed:4
      [ Netsim.Faults.Device_crash
          { device = "primary"; at = 0.2; restart_after = 0.3 } ]
  in
  Netsim.Faults.register_device faults "primary"
    ~crash:(fun () -> Targets.Device.crash primary)
    ~restart:(fun () -> Targets.Device.restart primary);
  let members = [ primary; backup ] in
  Control.Replication.watch_faults group faults
    ~resolve:(fun id ->
      List.find_opt (fun d -> Targets.Device.id d = id) members);
  Netsim.Sim.at sim 0.8 (fun () -> Control.Replication.stop group);
  ignore (Netsim.Sim.run ~until:1.0 sim);
  Alcotest.(check string)
    "backup promoted on crash" "backup"
    (Targets.Device.id (Control.Replication.primary group));
  check_int "old primary rejoined as backup" 1
    (Control.Replication.rejoins group);
  check "rejoined device is in the sync set" true
    (List.exists
       (fun d -> Targets.Device.id d = "primary")
       (Control.Replication.backups group));
  check "a non-member restart is ignored" true
    (Control.Replication.rejoin group (counting_device "stranger");
     Control.Replication.rejoins group = 1)

(* -- Controller: re-resolution after a crash rollback --------------------- *)

let test_controller_reresolves_after_restart () =
  let sim = Netsim.Sim.create () in
  let built = Netsim.Topology.linear ~sim ~switches:1 () in
  let topo = built.Netsim.Topology.topo in
  let dev = Targets.Device.create ~id:"s0" Targets.Arch.drmt in
  let wireds =
    [ Runtime.Wiring.attach topo (List.hd built.Netsim.Topology.switch_list) dev ]
  in
  let ctl = Control.Controller.create ~sim ~topo ~wireds in
  let b = block "app" [ map_incr "m" [ const 0 ] ] in
  let prog = program "p" ~maps:[ map_decl ~key_arity:1 ~size:4 "m" ] [ b ] in
  let uri = Control.Uri.v ~owner:"tenant" "app" in
  let app =
    Control.Controller.register_app ctl ~uri
      ~kind:Control.Controller.Tenant_extension ~program:prog ~replicas:[]
  in
  let faults =
    Netsim.Faults.create ~sim ~seed:6
      [ Netsim.Faults.Device_crash
          { device = "s0"; at = 0.2; restart_after = 0.1 } ]
  in
  List.iter (Runtime.Wiring.bind_faults faults) wireds;
  Control.Controller.watch_faults ctl faults;
  (* inject the app inside a freeze window: the crash rolls the device
     back to its pre-app checkpoint, so restart must re-resolve *)
  Netsim.Sim.at sim 0.1 (fun () ->
      Targets.Device.freeze dev;
      (match Control.Controller.inject_on ctl uri ~device:dev with
       | Ok () -> ()
       | Error e -> Alcotest.failf "inject: %a" Control.Controller.pp_op_error e);
      app.Control.Controller.replicas <- [ dev ]);
  ignore (Netsim.Sim.run ~until:1.0 sim);
  check "crash rollback removed the element, restart reinstalled it" true
    (List.mem "app" (Targets.Device.installed_names dev));
  check "re-resolution counted" true (Control.Controller.reresolutions ctl > 0);
  check "device back up" true (Targets.Device.powered_on dev)

let () =
  Alcotest.run "faults"
    [ ( "injector",
        [ Alcotest.test_case "glob matching" `Quick test_glob;
          Alcotest.test_case "deterministic decisions" `Quick
            test_deterministic_decisions ] );
      ( "links",
        [ Alcotest.test_case "loss window" `Quick test_link_loss_window;
          Alcotest.test_case "extra delay window" `Quick test_link_extra_delay ] );
      ( "drpc",
        [ Alcotest.test_case "gives up after retries" `Quick
            test_drpc_gives_up_after_retries;
          Alcotest.test_case "retry succeeds after window" `Quick
            test_drpc_retry_succeeds_after_window;
          Alcotest.test_case "clean fabric, no retries" `Quick
            test_drpc_clean_fabric_no_retries ] );
      ( "reconfig",
        [ Alcotest.test_case "re-drive after crash" `Quick
            test_reconfig_redrive_after_crash;
          Alcotest.test_case "atomic abort" `Quick test_reconfig_atomic_abort;
          Alcotest.test_case "rejected op aborts" `Quick
            test_reconfig_rejected_op_aborts;
          Alcotest.test_case "deploy crash: re-drive lands full plan" `Quick
            test_deploy_crash_redrive;
          Alcotest.test_case "deploy crash: atomic abort" `Quick
            test_deploy_crash_atomic_abort;
          to_alcotest prop_fault_plan_old_xor_new ] );
      ( "tiering",
        [ to_alcotest prop_dropped_pages_never_change_forwarding;
          Alcotest.test_case "full drop: host tier serves every lookup" `Quick
            test_paging_full_drop_host_serves;
          Alcotest.test_case "promotions resume after drop window" `Quick
            test_paging_recovers_after_window;
          Alcotest.test_case "delayed page lands under the missed key" `Quick
            test_delayed_page_keeps_missed_key;
          Alcotest.test_case "move carries both tiers" `Quick
            test_move_carries_both_tiers;
          Alcotest.test_case "crash mid-move: old XOR new tiers" `Quick
            test_crash_mid_move_old_xor_new ] );
      ( "control",
        [ Alcotest.test_case "replication failover+rejoin" `Quick
            test_replication_failover_and_rejoin;
          Alcotest.test_case "controller re-resolution" `Quick
            test_controller_reresolves_after_restart ] ) ]
