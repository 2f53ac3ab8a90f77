(* End-to-end tests through the Flexnet facade: the whole-stack network
   with infrastructure deployment, live tenant injection, hitless
   patches under traffic, and app-level controller operations. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk_net ?(arch = Targets.Arch.Drmt) ?(switches = 3) () =
  let net = Flexnet.create ~arch ~switches () in
  (match Flexnet.deploy_infrastructure net with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "deploy: %s" e);
  net

let h0_to_h1_packet net =
  let h0 = Flexnet.h0 net and h1 = Flexnet.h1 net in
  Netsim.Packet.create
    [ Netsim.Packet.ethernet
        ~src:(Int64.of_int h0.Netsim.Node.id)
        ~dst:(Int64.of_int h1.Netsim.Node.id) ();
      Netsim.Packet.ipv4
        ~src:(Int64.of_int h0.Netsim.Node.id)
        ~dst:(Int64.of_int h1.Netsim.Node.id) ();
      Netsim.Packet.tcp ~sport:1234L ~dport:80L () ]

let vlan_packet net ~vid ~src ~dst =
  ignore net;
  Netsim.Packet.create
    [ Netsim.Packet.ethernet ~src ~dst ();
      Netsim.Packet.vlan ~vid ();
      Netsim.Packet.ipv4 ~src ~dst ();
      Netsim.Packet.tcp ~sport:1234L ~dport:80L () ]

let test_infrastructure_delivery () =
  let net = mk_net () in
  for _ = 1 to 10 do
    Flexnet.send_h0 net (h0_to_h1_packet net)
  done;
  Flexnet.run net ~until:1.0;
  let stats = Flexnet.stats net in
  check_int "all packets delivered" 10 stats.Flexnet.delivered_h1;
  check_int "no device drops" 0 stats.Flexnet.device_drops

let test_infrastructure_on_each_arch () =
  List.iter
    (fun arch ->
      let net = mk_net ~arch () in
      for _ = 1 to 5 do
        Flexnet.send_h0 net (h0_to_h1_packet net)
      done;
      Flexnet.run net ~until:1.0;
      let stats = Flexnet.stats net in
      check_int
        (Targets.Arch.kind_to_string arch ^ " delivers")
        5 stats.Flexnet.delivered_h1)
    [ Targets.Arch.Rmt; Targets.Arch.Drmt; Targets.Arch.Tiles;
      Targets.Arch.Elastic_pipe ]

let test_tenant_injection_live () =
  let net = mk_net () in
  (* tenant scrubber-style dropper guarded by its vlan *)
  let ext =
    Flexbpf.Builder.(
      program ~owner:"acme" "dropper"
        ~maps:[ map_decl ~key_arity:1 ~size:4 "hits" ]
        [ block "drop_all"
            [ map_incr "hits" [ const 0 ]; drop ] ])
  in
  let vlan =
    match Flexnet.add_tenant net ext with
    | Ok (tenant, _report) -> tenant.Control.Tenants.vlan
    | Error e -> Alcotest.failf "admit: %a" Control.Tenants.pp_admission_error e
  in
  let h0 = Flexnet.h0 net and h1 = Flexnet.h1 net in
  (* tenant-tagged traffic is dropped by the tenant program *)
  Flexnet.send_h0 net
    (vlan_packet net ~vid:(Int64.of_int vlan)
       ~src:(Int64.of_int h0.Netsim.Node.id)
       ~dst:(Int64.of_int h1.Netsim.Node.id));
  (* untagged traffic is unaffected *)
  Flexnet.send_h0 net (h0_to_h1_packet net);
  Flexnet.run net ~until:1.0;
  let stats = Flexnet.stats net in
  check_int "only untagged arrived" 1 stats.Flexnet.delivered_h1;
  (* departure restores tagged delivery *)
  (match Flexnet.remove_tenant net "acme" with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "depart: %a" Control.Tenants.pp_departure_error e);
  Flexnet.send_h0 net
    (vlan_packet net ~vid:(Int64.of_int vlan)
       ~src:(Int64.of_int h0.Netsim.Node.id)
       ~dst:(Int64.of_int h1.Netsim.Node.id));
  Flexnet.run net ~until:2.0;
  let stats = Flexnet.stats net in
  check_int "tagged delivered after departure" 2
    stats.Flexnet.delivered_h1

(* Insert telemetry before routing. *)
let telemetry_patch =
  Flexbpf.Patch.v "add-telemetry"
    [ Flexbpf.Patch.Add_map Apps.Telemetry.flow_bytes_map;
      Flexbpf.Patch.Add_element
        (Flexbpf.Patch.Before (Flexbpf.Patch.Sel_name "ipv4_lpm"),
         Apps.Telemetry.flow_counter) ]

let test_hitless_patch_under_traffic () =
  let net = mk_net () in
  let sim = Flexnet.sim net in
  let sent = ref 0 in
  let gen = Netsim.Traffic.create sim in
  Netsim.Traffic.cbr gen ~rate_pps:500. ~start:0. ~stop:1.0 ~send:(fun () ->
      incr sent;
      Flexnet.send_h0 net (h0_to_h1_packet net));
  let completed = ref None in
  Netsim.Sim.at sim 0.5 (fun () ->
      match
        Flexnet.patch_hitless net telemetry_patch ~on_done:(fun report ->
            completed := Some report)
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "patch: %a" Compiler.Incremental.pp_error e);
  Flexnet.run net ~until:3.0;
  let stats = Flexnet.stats net in
  check_int "zero loss across live patch" !sent stats.Flexnet.delivered_h1;
  (match !completed with
   | Some report ->
     check "sub-second completion" true (report.Compiler.Incremental.duration < 1.)
   | None -> Alcotest.fail "patch completion not observed");
  (* telemetry actually counts *)
  let counted =
    List.exists
      (fun d ->
        Apps.Telemetry.flow_count d
          ~src:(Int64.of_int (Flexnet.h0 net).Netsim.Node.id)
          ~dst:(Int64.of_int (Flexnet.h1 net).Netsim.Node.id)
        > 0L)
      (Flexnet.path net)
  in
  check "telemetry live after patch" true counted

(* s0 crashes inside the patch's window and restarts on its old program:
   the engine must re-drive the plan so the device ends on the program
   the deployment records, not behind it. *)
let test_hitless_patch_crash_redrive () =
  let net = mk_net () in
  let sim = Flexnet.sim net in
  let s0 = Option.get (Flexnet.device net "s0") in
  let completed = ref false in
  Netsim.Sim.at sim 1.0 (fun () ->
      match
        Flexnet.patch_hitless net telemetry_patch ~on_done:(fun _ ->
            completed := true)
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "patch: %a" Compiler.Incremental.pp_error e);
  Netsim.Sim.at sim 1.02 (fun () -> Targets.Device.crash s0);
  Netsim.Sim.at sim 1.03 (fun () -> Targets.Device.restart s0);
  Flexnet.run net ~until:2.0;
  let dep = Flexnet.deployment_exn net in
  check "deployment records flow_counter" true
    (List.exists
       (fun el -> Flexbpf.Ast.element_name el = "flow_counter")
       dep.Compiler.Incremental.dep_prog.Flexbpf.Ast.pipeline);
  check "s0 runs flow_counter" true
    (List.mem "flow_counter" (Targets.Device.installed_names s0));
  check "s0 unfrozen" false (Targets.Device.is_frozen s0);
  let placed_on_s0 =
    List.filter_map
      (fun (name, d) -> if d == s0 then Some name else None)
      dep.Compiler.Incremental.dep_placement.Compiler.Placement.where
  in
  Alcotest.(check (list string))
    "s0 hosts exactly what the deployment places there"
    (List.sort compare placed_on_s0)
    (List.sort compare (Targets.Device.installed_names s0));
  check "completion reported" true !completed

let test_controller_inject_retire () =
  let net = mk_net () in
  let ctl = Flexnet.controller net in
  let uri = Control.Uri.v ~owner:"infra" "scrubber" in
  let app =
    Control.Controller.register_app ctl ~uri
      ~kind:Control.Controller.Utility ~program:(Apps.Scrubber.program ())
      ~replicas:[]
  in
  ignore app;
  let s0 = Option.get (Flexnet.device net "s0") in
  (match Control.Controller.inject_on ctl uri ~device:s0 with
   | Ok () -> ()
   | Error e -> Alcotest.failf "inject: %a" Control.Controller.pp_op_error e);
  check "scrubber live on s0" true
    (List.mem "scrub_blocklist" (Targets.Device.installed_names s0));
  Alcotest.(check (list string)) "app located by uri" [ "s0" ]
    (Control.Controller.app_locations ctl uri);
  (* block an attacker via the element-level API and verify *)
  let api = Control.Controller.api ctl s0 in
  (match
     Control.Device_api.insert_rule api ~table:"scrub_blocklist"
       (Apps.Scrubber.block_rule ~src:666)
   with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  let h1 = Flexnet.h1 net in
  let attack =
    Netsim.Packet.create
      [ Netsim.Packet.ethernet ~src:666L ~dst:(Int64.of_int h1.Netsim.Node.id) ();
        Netsim.Packet.ipv4 ~src:666L ~dst:(Int64.of_int h1.Netsim.Node.id) ();
        Netsim.Packet.tcp ~sport:1L ~dport:80L () ]
  in
  Flexnet.send_h0 net attack;
  Flexnet.send_h0 net (h0_to_h1_packet net);
  Flexnet.run net ~until:1.0;
  check_int "attack scrubbed, legit passes" 1
    (Flexnet.stats net).Flexnet.delivered_h1;
  (* retire: footprint disappears *)
  (match Control.Controller.retire_from ctl uri ~device:s0 with
   | Ok () -> ()
   | Error e -> Alcotest.failf "retire: %a" Control.Controller.pp_op_error e);
  check "no persistent footprint" false
    (List.mem "scrub_blocklist" (Targets.Device.installed_names s0))

let test_controller_digest_subscription () =
  let net = mk_net () in
  let ctl = Flexnet.controller net in
  let uri = Control.Uri.v ~owner:"infra" "hh" in
  let cfg = { Apps.Cm_sketch.depth = 2; width = 64; map_name = "cms" } in
  ignore
    (Control.Controller.register_app ctl ~uri ~kind:Control.Controller.Utility
       ~program:(Apps.Heavy_hitter.program ~cfg ~threshold:20 ~report_every:16 ())
       ~replicas:[]);
  let s1 = Option.get (Flexnet.device net "s1") in
  (match Control.Controller.inject_on ctl uri ~device:s1 with
   | Ok () -> ()
   | Error e -> Alcotest.failf "inject: %a" Control.Controller.pp_op_error e);
  let alerts = ref 0 in
  Control.Controller.subscribe ctl ~digest:Apps.Heavy_hitter.digest_name
    (fun _ _ -> incr alerts);
  for _ = 1 to 200 do
    Flexnet.send_h0 net (h0_to_h1_packet net)
  done;
  Flexnet.run net ~until:1.0;
  check "controller received heavy-hitter digests" true (!alerts > 0);
  check_int "digest log matches" !alerts
    (Control.Controller.digest_count ctl Apps.Heavy_hitter.digest_name)

let test_view_reports_devices () =
  let net = mk_net () in
  let view = Control.Controller.view (Flexnet.controller net) in
  check_int "five wired devices" 5 (List.length view);
  check "some devices host elements" true
    (List.exists (fun s -> s.Control.Controller.ds_elements > 0) view)

let test_drpc_reaches_services () =
  let net = mk_net () in
  let reg = Flexnet.drpc net in
  Runtime.Drpc.register_standard reg
    ~fleet:(Flexnet.path net)
    ~map_name:"port_counters";
  check "heartbeat discoverable" true
    (List.mem "heartbeat" (Runtime.Drpc.discover reg "*"));
  check "heartbeat answers" true (Runtime.Drpc.invoke_inline reg "heartbeat" [] = 1L);
  check "second beat" true (Runtime.Drpc.invoke_inline reg "heartbeat" [] = 2L)

let () =
  Alcotest.run "flexnet"
    [ ( "end-to-end",
        [ Alcotest.test_case "infrastructure delivery" `Quick
            test_infrastructure_delivery;
          Alcotest.test_case "all switch archs" `Quick
            test_infrastructure_on_each_arch;
          Alcotest.test_case "tenant inject/depart live" `Quick
            test_tenant_injection_live;
          Alcotest.test_case "hitless patch crash re-drive" `Quick
            test_hitless_patch_crash_redrive;
          Alcotest.test_case "hitless patch under traffic" `Quick
            test_hitless_patch_under_traffic ] );
      ( "controller",
        [ Alcotest.test_case "inject+retire" `Quick test_controller_inject_retire;
          Alcotest.test_case "digest subscription" `Quick
            test_controller_digest_subscription;
          Alcotest.test_case "global view" `Quick test_view_reports_devices;
          Alcotest.test_case "drpc services" `Quick test_drpc_reaches_services ] )
    ]
