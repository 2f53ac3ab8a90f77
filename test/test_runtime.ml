(* Tests for the runtime layer: device wiring, hitless vs drain
   reconfiguration over simulated time, state migration protocols, and
   data-plane RPC. *)

open Flexbpf.Builder

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)

let small_table name =
  table name
    ~keys:[ exact (field "ipv4" "dst") ]
    ~actions:[ action "a" [ Flexbpf.Ast.Nop ] ]
    ~default:("a", []) ~size:64 ()

(* h0 - s0 - s1 - s2 - h1 with dRMT devices on switches *)
let wired_net () =
  let sim = Netsim.Sim.create () in
  let built = Netsim.Topology.linear ~sim ~switches:3 () in
  let topo = built.Netsim.Topology.topo in
  let h0 = List.nth built.Netsim.Topology.host_list 0 in
  let h1 = List.nth built.Netsim.Topology.host_list 1 in
  let devs =
    List.map
      (fun sw ->
        Targets.Device.create ~id:sw.Netsim.Node.name Targets.Arch.drmt)
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

let send_one topo h0 h1 =
  ignore topo;
  let pkt =
    Netsim.Packet.create
      [ Netsim.Packet.ethernet ~src:(Int64.of_int h0.Netsim.Node.id)
          ~dst:(Int64.of_int h1.Netsim.Node.id) ();
        Netsim.Packet.ipv4 ~src:(Int64.of_int h0.Netsim.Node.id)
          ~dst:(Int64.of_int h1.Netsim.Node.id) ();
        Netsim.Packet.tcp ~sport:10L ~dport:20L () ]
  in
  Netsim.Node.send h0 ~port:0 pkt;
  pkt

(* -- Wiring -------------------------------------------------------------- *)

let test_empty_devices_forward () =
  let sim, topo, h0, h1, _devs, _wireds, received = wired_net () in
  ignore (send_one topo h0 h1);
  ignore (Netsim.Sim.run sim);
  check_int "empty devices act as plain forwarders" 1 !received

let test_program_executes_on_path () =
  let sim, topo, h0, h1, devs, _wireds, received = wired_net () in
  let counter = block "cnt" [ map_incr "hits" [ field "ipv4" "dst" ] ] in
  let prog =
    program "p" ~maps:[ map_decl ~key_arity:1 ~size:32 "hits" ] [ counter ]
  in
  let s1 = List.nth devs 1 in
  (match Targets.Device.install s1 ~ctx:prog ~order:0 counter with
   | Ok _ -> ()
   | Error r -> Alcotest.failf "install: %s" (Targets.Resource.reject_to_string r));
  ignore (send_one topo h0 h1);
  ignore (send_one topo h0 h1);
  ignore (Netsim.Sim.run sim);
  check_int "still delivered" 2 !received;
  check_i64 "program counted transit packets" 2L
    (Flexbpf.State.get
       (Option.get (Targets.Device.map_state s1 "hits"))
       [| Int64.of_int h1.Netsim.Node.id |])

let test_program_drop_applies () =
  let sim, topo, h0, h1, devs, _wireds, received = wired_net () in
  let dropper = block "deny" [ drop ] in
  let prog = program "p" [ dropper ] in
  ignore (Targets.Device.install (List.nth devs 0) ~ctx:prog ~order:0 dropper);
  ignore (send_one topo h0 h1);
  ignore (Netsim.Sim.run sim);
  check_int "dropped at first switch" 0 !received

let test_punt_reaches_subscriber () =
  let sim, topo, h0, h1, devs, wireds, _received = wired_net () in
  let punter = block "alarm" [ punt "test_digest" ] in
  let prog = program "p" [ punter ] in
  ignore (Targets.Device.install (List.nth devs 0) ~ctx:prog ~order:0 punter);
  let digests = ref 0 in
  (List.nth wireds 0).Runtime.Wiring.on_punt <- (fun _ _ -> incr digests);
  ignore (send_one topo h0 h1);
  ignore (Netsim.Sim.run sim);
  check_int "digest delivered" 1 !digests;
  check_int "punt log kept" 1
    (List.length (Runtime.Wiring.punted (List.nth wireds 0)))

(* -- Reconfiguration over time --------------------------------------------- *)

(* CBR traffic through the wired path while the middle switch is
   reconfigured; returns (received, sent). *)
let run_reconfig_experiment mode =
  let sim, topo, h0, h1, devs, wireds, received = wired_net () in
  let sent = ref 0 in
  let gen = Netsim.Traffic.create sim in
  Netsim.Traffic.cbr gen ~rate_pps:1000. ~start:0. ~stop:2.0 ~send:(fun () ->
      incr sent;
      ignore (send_one topo h0 h1));
  (* install a program on s1 at t=1s via the chosen mode *)
  let counter = block "cnt" [ map_incr "hits" [ const 0 ] ] in
  let prog = program "p" ~maps:[ map_decl ~key_arity:1 ~size:4 "hits" ] [ counter ] in
  let plan =
    Compiler.Plan.v "add-counter"
      [ Compiler.Plan.Install { device = "s1"; element = counter; ctx = prog; order = 0 } ]
  in
  let done_at = ref 0. in
  Netsim.Sim.at sim 1.0 (fun () ->
      Runtime.Reconfig.execute ~sim ~mode ~wireds ~devices:devs plan
        ~on_done:(fun o -> done_at := o.Runtime.Reconfig.finished_at));
  ignore (Netsim.Sim.run sim);
  (!received, !sent, !done_at, wireds)

let test_hitless_no_loss () =
  let received, sent, done_at, _ = run_reconfig_experiment Runtime.Reconfig.Hitless in
  check_int "zero loss during hitless reconfig" sent received;
  check "completed within a second" true (done_at -. 1.0 < 1.0);
  check "completed after start" true (done_at > 1.0)

let test_drain_loses_traffic () =
  let received, sent, done_at, wireds =
    run_reconfig_experiment Runtime.Reconfig.Drain
  in
  check "drain mode drops traffic" true (received < sent);
  (* drain 10s + reflash 40s on dRMT: the done time is far out *)
  check "drain takes tens of seconds" true (done_at -. 1.0 > 10.);
  let drops =
    List.fold_left (fun acc w -> acc + Runtime.Wiring.drain_drops w) 0 wireds
  in
  check "drops attributed to reconfig" true (drops > 0);
  check_int "loss accounted exactly" sent (received + drops)

let test_hitless_two_version_consistency () =
  (* every packet must observe either the pre- or post-reconfig device
     version, never a partial state: we verify via epoch stamps *)
  let sim, topo, h0, h1, devs, wireds, _received = wired_net () in
  let s1 = List.nth devs 1 in
  (* preinstall so the device runs a program (and stamps epochs) *)
  let t0 = small_table "t0" in
  let prog0 = program "p0" [ t0 ] in
  ignore (Targets.Device.install s1 ~ctx:prog0 ~order:0 t0);
  let v_old = Targets.Device.version s1 in
  let epochs = ref [] in
  Netsim.Node.set_handler h1 (fun _ ~in_port:_ pkt ->
      epochs := pkt.Netsim.Packet.epoch :: !epochs);
  let gen = Netsim.Traffic.create sim in
  Netsim.Traffic.cbr gen ~rate_pps:2000. ~start:0. ~stop:0.5 ~send:(fun () ->
      ignore (send_one topo h0 h1));
  let t1 = small_table "t1" in
  let prog1 = program "p1" [ t0; t1 ] in
  let plan =
    Compiler.Plan.v "add"
      [ Compiler.Plan.Install { device = "s1"; element = t1; ctx = prog1; order = 1 } ]
  in
  Netsim.Sim.at sim 0.2 (fun () ->
      Runtime.Reconfig.execute ~sim ~mode:Runtime.Reconfig.Hitless ~wireds
        ~devices:devs plan);
  ignore (Netsim.Sim.run sim);
  let v_new = Targets.Device.version s1 in
  check "version advanced" true (v_new > v_old);
  let distinct = List.sort_uniq compare !epochs in
  check "packets saw exactly old xor new program" true
    (List.for_all (fun e -> e = v_old || e = v_new) distinct);
  check "both versions observed across the transition" true
    (List.length distinct = 2)

(* -- Migration --------------------------------------------------------------- *)

let sketch_cfg = { Apps.Cm_sketch.depth = 2; width = 64; map_name = "cms" }

let mk_sketch_device id =
  let dev = Targets.Device.create ~id Targets.Arch.drmt in
  let prog = Apps.Cm_sketch.program ~cfg:sketch_cfg () in
  let upd = Apps.Cm_sketch.update_block sketch_cfg in
  (match Targets.Device.install dev ~ctx:prog ~order:0 upd with
   | Ok _ -> ()
   | Error r -> Alcotest.failf "install: %s" (Targets.Resource.reject_to_string r));
  dev

let random_packet rng =
  let src = Int64.of_int (Random.State.int rng 50) in
  Netsim.Packet.create
    [ Netsim.Packet.ethernet ~src ~dst:1L ();
      Netsim.Packet.ipv4 ~src ~dst:1L ();
      Netsim.Packet.tcp ~sport:9L ~dport:7L () ]

(* Drive [pps] packets/s of updates through the migration handle while
   migrating at t=0.5 with the given protocol; returns (sum at final
   active device, total packets sent). *)
let migration_run protocol =
  let sim = Netsim.Sim.create () in
  let src = mk_sketch_device "src" in
  let dst = mk_sketch_device "dst" in
  let handle = Runtime.Migration.create src in
  let rng = Random.State.make [| 3 |] in
  let sent = ref 0 in
  let gen = Netsim.Traffic.create sim in
  Netsim.Traffic.cbr gen ~rate_pps:10_000. ~start:0. ~stop:1.0 ~send:(fun () ->
      incr sent;
      ignore
        (Runtime.Migration.exec handle
           ~now_us:(Int64.of_float (Netsim.Sim.now sim *. 1e6))
           (random_packet rng)));
  Netsim.Sim.at sim 0.5 (fun () ->
      match protocol with
      | `Freeze ->
        Runtime.Migration.freeze_copy ~entries_per_second:1_000. ~sim handle
          ~dst ~map_names:[ "cms" ] ()
      | `Swing ->
        Runtime.Migration.swing ~sim handle ~dst ~map_names:[ "cms" ] ());
  ignore (Netsim.Sim.run sim);
  let final = Runtime.Migration.active handle in
  Alcotest.(check string) "cutover happened" "dst" (Targets.Device.id final);
  (Int64.to_int (Runtime.Migration.map_sum final "cms"), !sent)

let test_freeze_copy_loses_updates () =
  let total, sent = migration_run `Freeze in
  (* each packet adds [depth] increments *)
  let expected = sent * sketch_cfg.Apps.Cm_sketch.depth in
  check "freeze-copy lost in-flight updates" true (total < expected);
  (* copy window at 1k entries/s with ~100 entries ≈ 100ms of 10kpps
     traffic lost: a substantial gap *)
  check "loss is substantial" true (expected - total > 1000)

let test_swing_is_lossless () =
  let total, sent = migration_run `Swing in
  let expected = sent * sketch_cfg.Apps.Cm_sketch.depth in
  check_int "swing migration loses nothing" expected total

let test_migration_preserves_estimates () =
  (* sketch estimates for a flow survive migration *)
  let sim = Netsim.Sim.create () in
  let src = mk_sketch_device "src" in
  let dst = mk_sketch_device "dst" in
  let handle = Runtime.Migration.create src in
  let pkt () =
    Netsim.Packet.create
      [ Netsim.Packet.ethernet ~src:5L ~dst:1L ();
        Netsim.Packet.ipv4 ~src:5L ~dst:1L ();
        Netsim.Packet.tcp ~sport:9L ~dport:7L () ]
  in
  for _ = 1 to 25 do
    ignore (Runtime.Migration.exec handle ~now_us:0L (pkt ()))
  done;
  Runtime.Migration.swing ~sim handle ~dst ~map_names:[ "cms" ] ();
  ignore (Netsim.Sim.run sim);
  let est =
    Apps.Cm_sketch.estimate_on_device sketch_cfg dst ~src:5L ~dst:1L ~proto:6L
  in
  check_i64 "estimate preserved across devices" 25L est

(* -- dRPC ---------------------------------------------------------------------- *)

let test_drpc_registry () =
  let sim = Netsim.Sim.create () in
  let reg = Runtime.Drpc.create sim in
  Runtime.Drpc.register reg "infra/replicate" (fun _ -> 1L);
  Runtime.Drpc.register reg "infra/read" (fun _ -> 2L);
  Runtime.Drpc.register reg ~owner:"acme" "acme/custom" (fun _ -> 3L);
  Alcotest.(check (list string)) "glob discovery"
    [ "infra/read"; "infra/replicate" ]
    (Runtime.Drpc.discover reg "infra/*");
  Runtime.Drpc.unregister reg "infra/read";
  Alcotest.(check (list string)) "unregister" [ "infra/replicate" ]
    (Runtime.Drpc.discover reg "infra/*")

let test_drpc_vs_controlplane_latency () =
  let sim = Netsim.Sim.create () in
  let reg = Runtime.Drpc.create ~controlplane_rtt:0.002 sim in
  Runtime.Drpc.register reg ~dataplane_latency:5e-6 "op" (fun _ -> 1L);
  let n = 100 in
  (* n sequential invocations each way *)
  let dp_done = ref 0. and cp_done = ref 0. in
  let rec dp_chain i =
    if i = 0 then dp_done := Netsim.Sim.now sim
    else
      Runtime.Drpc.invoke_dataplane reg "op" [] ~k:(fun _ -> dp_chain (i - 1))
  in
  dp_chain n;
  ignore (Netsim.Sim.run sim);
  let sim2 = Netsim.Sim.create () in
  let reg2 = Runtime.Drpc.create ~controlplane_rtt:0.002 sim2 in
  Runtime.Drpc.register reg2 ~dataplane_latency:5e-6 "op" (fun _ -> 1L);
  let rec cp_chain i =
    if i = 0 then cp_done := Netsim.Sim.now sim2
    else
      Runtime.Drpc.invoke_controlplane reg2 "op" [] ~k:(fun _ -> cp_chain (i - 1))
  in
  cp_chain n;
  ignore (Netsim.Sim.run sim2);
  check "data plane orders of magnitude faster" true (!dp_done *. 50. < !cp_done);
  check_int "dp counted" n (Runtime.Drpc.dp_invocations reg);
  check_int "cp counted" n (Runtime.Drpc.cp_invocations reg2)

let test_drpc_inline_from_program () =
  let sim = Netsim.Sim.create () in
  let reg = Runtime.Drpc.create sim in
  Runtime.Drpc.register reg "double" (fun args ->
      match args with [ x ] -> Int64.mul 2L x | _ -> 0L);
  let dev = Targets.Device.create Targets.Arch.smartnic in
  Runtime.Drpc.bind_device reg dev;
  let caller = block "caller" [ call "double" [ const 21 ] ] in
  let prog = program "p" [ caller ] in
  ignore (Targets.Device.install dev ~ctx:prog ~order:0 caller);
  let pkt =
    Netsim.Packet.create
      [ Netsim.Packet.ethernet ~src:1L ~dst:2L ();
        Netsim.Packet.ipv4 ~src:1L ~dst:2L () ]
  in
  ignore (Targets.Device.exec dev ~now_us:0L pkt);
  check_i64 "service result delivered to program" 42L
    (Netsim.Packet.meta_default pkt "drpc_double" 0L);
  check "unknown service is total" true
    (Runtime.Drpc.invoke_inline reg "nope" [] = 0L)

let test_drpc_standard_services () =
  let sim = Netsim.Sim.create () in
  let reg = Runtime.Drpc.create sim in
  let mk id =
    let dev = Targets.Device.create ~id Targets.Arch.drmt in
    let b = block "b" [ map_incr "repl" [ field "ipv4" "src" ] ] in
    let prog =
      program "p" ~maps:[ map_decl ~key_arity:1 ~size:64 "repl" ] [ b ]
    in
    ignore (Targets.Device.install dev ~ctx:prog ~order:0 b);
    dev
  in
  let d0 = mk "d0" and d1 = mk "d1" in
  Runtime.Drpc.register_standard reg ~fleet:[ d0; d1 ] ~map_name:"repl";
  (* accumulate on d0 *)
  (match Targets.Device.map_state d0 "repl" with
   | Some st ->
     Flexbpf.State.put st [| 1L |] 30L;
     Flexbpf.State.put st [| 2L |] 12L
   | None -> Alcotest.fail "map missing");
  check_i64 "read_counter sums d0" 42L
    (Runtime.Drpc.invoke_inline reg "read_counter" [ 0L ]);
  check_i64 "read_counter of empty d1" 0L
    (Runtime.Drpc.invoke_inline reg "read_counter" [ 1L ]);
  (* replicate d0 -> d1 in the data plane *)
  check_i64 "replicate succeeds" 1L
    (Runtime.Drpc.invoke_inline reg "replicate" [ 0L; 1L ]);
  check_i64 "d1 now mirrors d0" 42L
    (Runtime.Drpc.invoke_inline reg "read_counter" [ 1L ]);
  (* out-of-range device indices are total *)
  check_i64 "bad index is 0" 0L
    (Runtime.Drpc.invoke_inline reg "read_counter" [ 9L ]);
  check_i64 "bad replicate is 0" 0L
    (Runtime.Drpc.invoke_inline reg "replicate" [ 7L; 8L ])

let () =
  Alcotest.run "runtime"
    [ ( "wiring",
        [ Alcotest.test_case "empty devices forward" `Quick test_empty_devices_forward;
          Alcotest.test_case "program on path" `Quick test_program_executes_on_path;
          Alcotest.test_case "program drop" `Quick test_program_drop_applies;
          Alcotest.test_case "punt subscription" `Quick test_punt_reaches_subscriber ] );
      ( "reconfig",
        [ Alcotest.test_case "hitless zero loss" `Quick test_hitless_no_loss;
          Alcotest.test_case "drain loses traffic" `Quick test_drain_loses_traffic;
          Alcotest.test_case "two-version consistency" `Quick
            test_hitless_two_version_consistency ] );
      ( "migration",
        [ Alcotest.test_case "freeze-copy loses" `Quick test_freeze_copy_loses_updates;
          Alcotest.test_case "swing lossless" `Quick test_swing_is_lossless;
          Alcotest.test_case "estimates preserved" `Quick
            test_migration_preserves_estimates ] );
      ( "drpc",
        [ Alcotest.test_case "registry" `Quick test_drpc_registry;
          Alcotest.test_case "dp vs cp latency" `Quick test_drpc_vs_controlplane_latency;
          Alcotest.test_case "inline call" `Quick test_drpc_inline_from_program;
          Alcotest.test_case "standard services" `Quick
            test_drpc_standard_services ] ) ]
