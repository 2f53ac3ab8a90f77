(* Tests for the control plane: URIs, the element-level device API,
   tenant lifecycle, elastic scaling, replication, and the Raft-based
   distributed controller. *)

open Flexbpf.Builder

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* -- URI ------------------------------------------------------------------- *)

let test_uri_roundtrip () =
  let u = Control.Uri.v ~owner:"acme" "firewall" in
  Alcotest.(check string) "print" "flexnet://acme/firewall" (Control.Uri.to_string u);
  (match Control.Uri.of_string "flexnet://acme/firewall" with
   | Ok u' -> check "parse" true (Control.Uri.equal u u')
   | Error e -> Alcotest.fail e);
  (match Control.Uri.of_string "flexnet://acme/firewall/conn_table" with
   | Ok u' ->
     Alcotest.(check (option string)) "component" (Some "conn_table")
       u'.Control.Uri.component;
     check "app_of strips component" true
       (Control.Uri.equal (Control.Uri.app_of u') u)
   | Error e -> Alcotest.fail e)

let test_uri_rejects_garbage () =
  check "no scheme" true (Result.is_error (Control.Uri.of_string "acme/firewall"));
  check "empty owner" true
    (Result.is_error (Control.Uri.of_string "flexnet:///firewall"));
  check "too many parts" true
    (Result.is_error (Control.Uri.of_string "flexnet://a/b/c/d"))

(* -- Device API --------------------------------------------------------------- *)

let fwd_table =
  table "fwd"
    ~keys:[ exact (field "ipv4" "dst") ]
    ~actions:[ action "out" ~params:[ "p" ] [ forward (param "p") ] ]
    ~default:("nop", []) ~size:64 ()

let test_device_api_rules () =
  let dev = Targets.Device.create Targets.Arch.drmt in
  let prog =
    program "p" ~maps:[ map_decl ~key_arity:1 ~size:16 "cnt" ]
      [ fwd_table; block "b" [ map_incr "cnt" [ const 0 ] ] ]
  in
  List.iteri
    (fun i el -> ignore (Targets.Device.install dev ~ctx:prog ~order:i el))
    prog.Flexbpf.Ast.pipeline;
  let api = Control.Device_api.connect dev in
  (match
     Control.Device_api.insert_rule api ~table:"fwd"
       (rule ~matches:[ exact_i 2 ] ~action:("out", [ 1 ]) ())
   with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  check_int "rule visible" 1 (List.length (Control.Device_api.rules api ~table:"fwd"));
  (* invalid rules rejected at the API *)
  check "arity mismatch rejected" true
    (Result.is_error
       (Control.Device_api.insert_rule api ~table:"fwd"
          (rule ~matches:[ exact_i 1; exact_i 2 ] ~action:("out", [ 1 ]) ())));
  check "unknown table rejected" true
    (Result.is_error
       (Control.Device_api.insert_rule api ~table:"ghost"
          (rule ~matches:[] ~action:("out", []) ())));
  (* counters *)
  check "write counter" true
    (Control.Device_api.write_counter api ~map:"cnt" ~key:[| 0L |] 5L);
  Alcotest.(check (option int64)) "read counter" (Some 5L)
    (Control.Device_api.read_counter api ~map:"cnt" ~key:[| 0L |]);
  check_int "removed" 1
    (Control.Device_api.remove_rules api ~table:"fwd" (fun _ -> true));
  (* every call was accounted with control-plane latency *)
  check "calls accounted" true (Control.Device_api.calls api >= 6);
  check "modeled time grows" true (Control.Device_api.modeled_time api > 0.)

(* -- Tenants --------------------------------------------------------------------- *)

let mk_deployment () =
  let path =
    [ Targets.Device.create ~id:"h0" Targets.Arch.host_ebpf;
      Targets.Device.create ~id:"s0" Targets.Arch.drmt;
      Targets.Device.create ~id:"s1" Targets.Arch.drmt;
      Targets.Device.create ~id:"h1" Targets.Arch.host_ebpf ]
  in
  match Runtime.Reconfig.deploy ~path (Apps.L2l3.program ()) with
  | Ok dep -> (path, dep)
  | Error f -> Alcotest.failf "deploy: %a" Compiler.Placement.pp_failure f

let test_tenant_admission_lifecycle () =
  let sim = Netsim.Sim.create () in
  let path, dep = mk_deployment () in
  let tenants = Control.Tenants.create ~sim dep in
  let ext = Apps.Firewall.program ~owner:"acme" ~boundary:100 () in
  (match Control.Tenants.admit tenants ~cert:(Flexbpf.Analysis.certify ext) ext with
   | Error e -> Alcotest.failf "admit: %a" Control.Tenants.pp_admission_error e
   | Ok (tenant, report) ->
     check_int "vlan allocated" 100 tenant.Control.Tenants.vlan;
     check "fast injection" true (report.Compiler.Incremental.duration < 1.);
     check "element live on some device" true
       (List.exists
          (fun d -> List.mem "acme/stateful_fw" (Targets.Device.installed_names d))
          path));
  check_int "tenant registered" 1 (Control.Tenants.active_count tenants);
  (* duplicate arrival rejected *)
  (match Control.Tenants.admit tenants ~cert:(Flexbpf.Analysis.certify ext) ext with
   | Error Control.Tenants.Already_present -> ()
   | _ -> Alcotest.fail "expected duplicate rejection");
  (* departure *)
  (match Control.Tenants.depart tenants "acme" with
   | Error e -> Alcotest.failf "depart: %a" Control.Tenants.pp_departure_error e
   | Ok _report ->
     check "elements removed from devices" true
       (List.for_all
          (fun d ->
            not (List.mem "acme/stateful_fw" (Targets.Device.installed_names d)))
          path));
  check_int "tenant gone" 0 (Control.Tenants.active_count tenants);
  check_int "counters" 1 tenants.Control.Tenants.admitted;
  check_int "departures" 1 tenants.Control.Tenants.departed

(* departure undoes arrival exactly, parser rules included: a tenant
   that brings its own protocol leaves no parse state behind, and can
   arrive again *)
let test_tenant_departure_restores () =
  let sim = Netsim.Sim.create () in
  let _path, dep = mk_deployment () in
  let tenants = Control.Tenants.create ~sim dep in
  let ext =
    program ~owner:"acme" "vx"
      ~headers:(standard_headers @ [ header "vxlan" [ ("vni", 24) ] ])
      ~parser:
        (standard_parser
        @ [ parser_rule "parse_vxlan" [ "ethernet"; "ipv4"; "udp"; "vxlan" ] ])
      ~maps:[ map_decl ~size:16 "vx_seen" ]
      [ block "count_vni"
          [ map_incr "vx_seen" [ field "vxlan" "vni" ] ] ]
  in
  let before = dep.Compiler.Incremental.dep_prog in
  let admit () =
    match Control.Tenants.admit tenants ~cert:(Flexbpf.Analysis.certify ext) ext with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "admit: %a" Control.Tenants.pp_admission_error e
  in
  admit ();
  check "tenant parser rule installed" true
    (List.exists
       (fun r -> r.Flexbpf.Ast.pr_name = "acme/parse_vxlan")
       dep.Compiler.Incremental.dep_prog.Flexbpf.Ast.parser);
  (match Control.Tenants.depart tenants "acme" with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "depart: %a" Control.Tenants.pp_departure_error e);
  let after = dep.Compiler.Incremental.dep_prog in
  check "parser restored" true (after.Flexbpf.Ast.parser = before.Flexbpf.Ast.parser);
  check "maps restored" true (after.Flexbpf.Ast.maps = before.Flexbpf.Ast.maps);
  check "pipeline restored" true
    (after.Flexbpf.Ast.pipeline = before.Flexbpf.Ast.pipeline);
  admit ();
  check_int "re-admitted" 1 (Control.Tenants.active_count tenants)

let test_tenant_rejection_paths () =
  let sim = Netsim.Sim.create () in
  let _path, dep = mk_deployment () in
  let tenants = Control.Tenants.create ~sim dep in
  (* ill-typed extension: references unknown map *)
  let broken =
    program ~owner:"bad" "broken" [ block "b" [ map_incr "ghost" [ const 0 ] ] ]
  in
  (match Control.Tenants.admit tenants ~cert:(Flexbpf.Analysis.certify broken) broken with
   | Error (Control.Tenants.Certification _) -> ()
   | _ -> Alcotest.fail "expected certification rejection");
  (* access-control violation: a tenant smuggling a reference into the
     infra namespace (slash-names bypass namespacing, so the access
     checker must catch them) *)
  let snoop =
    program ~owner:"bad" "snoop"
      ~maps:[ map_decl ~key_arity:1 ~size:4 "infra/secret" ]
      [ block "peek" [ set_meta "x" (map_get "infra/secret" [ const 0 ]) ] ]
  in
  (match Control.Tenants.admit tenants ~cert:(Flexbpf.Analysis.certify snoop) snoop with
   | Error (Control.Tenants.Access_control _) -> ()
   | _ -> Alcotest.fail "expected access rejection");
  check_int "rejections counted" 2 tenants.Control.Tenants.rejected;
  check_int "nothing admitted" 0 (Control.Tenants.active_count tenants)

let test_tenant_vlans_distinct () =
  let sim = Netsim.Sim.create () in
  let _path, dep = mk_deployment () in
  let tenants = Control.Tenants.create ~sim dep in
  let admit owner =
    let p = Apps.Firewall.program ~owner ~boundary:50 () in
    match Control.Tenants.admit tenants ~cert:(Flexbpf.Analysis.certify p) p with
    | Ok (t, _) -> t.Control.Tenants.vlan
    | Error e -> Alcotest.failf "admit %s: %a" owner Control.Tenants.pp_admission_error e
  in
  let v1 = admit "a" and v2 = admit "b" and v3 = admit "c" in
  check "distinct vlans" true (v1 <> v2 && v2 <> v3 && v1 <> v3);
  (* sharable logic across the two identical tenants is surfaced *)
  check "sharable report" true (Control.Tenants.sharable tenants <> [])

(* Certificate-driven shard placement: tenants whose maps certify
   [Exclusive] pin to one shard (stable across admission order);
   commutative/read-only tenants replicate. *)
let test_certificate_placement () =
  let mk () =
    let sim = Netsim.Sim.create () in
    let _path, dep = mk_deployment () in
    Control.Tenants.create ~sim ~shards:4 dep
  in
  let exclusive owner =
    program ~owner "pinned"
      ~maps:[ map_decl ~key_arity:1 ~size:8 "tbl" ]
      [ block "w" [ map_put "tbl" [ const 0 ] (const 1) ] ]
  in
  let commutative owner =
    program ~owner "counter"
      ~maps:[ map_decl ~key_arity:1 ~size:8 "hits" ]
      [ block "c" [ map_incr "hits" [ const 0 ] ] ]
  in
  let affinity tenants p =
    match Control.Tenants.admit tenants ~cert:(Flexbpf.Analysis.certify p) p with
    | Ok (t, _) -> t.Control.Tenants.shard_affinity
    | Error e -> Alcotest.failf "admit: %a" Control.Tenants.pp_admission_error e
  in
  let t1 = mk () in
  (* increment-only maps certify Commutative: replicate freely *)
  check "commutative tenant replicates" true
    (affinity t1 (commutative "acme") = None);
  (* the stateful firewall map_puts connection state: Exclusive *)
  check "firewall pins (map_put state)" true
    (affinity t1 (Apps.Firewall.program ~owner:"fw" ~boundary:50 ()) <> None);
  let pinme_shard = affinity t1 (exclusive "pinme") in
  (match pinme_shard with
   | Some s -> check "affinity in range" true (s >= 0 && s < 4)
   | None -> Alcotest.fail "exclusive tenant must pin to a shard");
  (* placement is a stable hash of the name: a fresh manager, different
     admission order, same shard *)
  let t2 = mk () in
  check "other exclusive tenants also pin" true
    (affinity t2 (exclusive "other") <> None);
  check "same name, same shard across managers" true
    (affinity t2 (exclusive "pinme") = pinme_shard)

(* -- Elastic scaling ----------------------------------------------------------------- *)

let test_elastic_scaling () =
  let sim = Netsim.Sim.create () in
  let load = ref 0. in
  let history = ref [] in
  let _policy =
    Control.Elastic.create ~sim ~name:"defense" ~min_replicas:0 ~max_replicas:4
      ~cooldown:0.05 ~period:0.05
      ~sample:(fun () -> !load)
      ~capacity_per_replica:100.
      ~scale_to:(fun n -> history := n :: !history)
      ()
  in
  (* load ramps to 350 then back to 0 *)
  Netsim.Sim.at sim 0.2 (fun () -> load := 150.);
  Netsim.Sim.at sim 0.5 (fun () -> load := 350.);
  Netsim.Sim.at sim 1.0 (fun () -> load := 0.);
  ignore (Netsim.Sim.run ~until:2.0 sim);
  let h = List.rev !history in
  check "scaled out to 2" true (List.mem 2 h);
  check "scaled out to 4" true (List.mem 4 h);
  Alcotest.(check (option int)) "scaled back in" (Some 0)
    (List.nth_opt h (List.length h - 1));
  check "bounded by max" true (List.for_all (fun n -> n <= 4) h)

let test_elastic_cooldown () =
  let sim = Netsim.Sim.create () in
  let load = ref 1000. in
  let changes = ref 0 in
  let _policy =
    Control.Elastic.create ~sim ~name:"x" ~min_replicas:0 ~max_replicas:10
      ~cooldown:10. (* one change allowed in the run *)
      ~period:0.05
      ~sample:(fun () ->
        (* oscillating load *)
        load := if !load = 1000. then 100. else 1000.;
        !load)
      ~capacity_per_replica:100.
      ~scale_to:(fun _ -> incr changes)
      ()
  in
  ignore (Netsim.Sim.run ~until:2.0 sim);
  check_int "cooldown suppressed thrashing" 1 !changes

(* -- Replication ---------------------------------------------------------------------- *)

let counting_device id =
  let dev = Targets.Device.create ~id Targets.Arch.drmt in
  let b = block "cnt" [ map_incr "state" [ field "ipv4" "src" ] ] in
  let prog =
    program "p" ~maps:[ map_decl ~key_arity:1 ~size:128 "state" ] [ b ]
  in
  ignore (Targets.Device.install dev ~ctx:prog ~order:0 b);
  dev

let bump dev n =
  for i = 1 to n do
    let pkt =
      Netsim.Packet.create
        [ Netsim.Packet.ethernet ~src:(Int64.of_int i) ~dst:1L ();
          Netsim.Packet.ipv4 ~src:(Int64.of_int i) ~dst:1L ();
          Netsim.Packet.tcp ~sport:1L ~dport:2L () ]
    in
    ignore (Targets.Device.exec dev ~now_us:0L pkt)
  done

let test_replication_and_failover () =
  let sim = Netsim.Sim.create () in
  let primary = counting_device "primary" in
  let backup = counting_device "backup" in
  let group =
    Control.Replication.create ~sim ~map_name:"state" ~primary
      ~backups:[ backup ] ~period:0.1
  in
  (* updates arrive over time; syncs happen every 100ms *)
  for i = 1 to 5 do
    Netsim.Sim.at sim (0.05 *. float_of_int i) (fun () -> bump primary 10)
  done;
  ignore (Netsim.Sim.run ~until:0.31 sim);
  check "synced at least twice" true (Control.Replication.syncs group >= 2);
  let lag = Control.Replication.staleness group backup in
  check "backup within one sync window" true (lag <= 20);
  (* primary dies: promote *)
  (match Control.Replication.failover group with
   | Some new_primary ->
     Alcotest.(check string) "backup promoted" "backup"
       (Targets.Device.id new_primary)
   | None -> Alcotest.fail "no backup to promote");
  Control.Replication.stop group

(* -- Raft -------------------------------------------------------------------------------- *)

let test_raft_elects_leader () =
  let sim = Netsim.Sim.create () in
  let raft = Control.Raft.create ~sim ~n:5 () in
  ignore (Netsim.Sim.run ~until:2.0 sim);
  match Control.Raft.leader raft with
  | Some l ->
    check "leader has majority term" true (l.Control.Raft.current_term >= 1)
  | None -> Alcotest.fail "no leader elected"

let test_raft_replicates_commands () =
  let sim = Netsim.Sim.create () in
  let raft = Control.Raft.create ~sim ~n:3 () in
  let applied = ref [] in
  Control.Raft.set_on_apply raft (fun node cmd ->
      applied := (node, cmd) :: !applied);
  ignore (Netsim.Sim.run ~until:1.0 sim);
  check "proposal accepted" true (Control.Raft.propose raft "inject fw");
  ignore (Netsim.Sim.run ~until:2.0 sim);
  let nodes_applied =
    List.sort_uniq compare (List.map fst !applied)
  in
  check_int "all three nodes applied" 3 (List.length nodes_applied);
  check "command content preserved" true
    (List.for_all (fun (_, c) -> c = "inject fw") !applied)

let test_raft_survives_leader_failure () =
  let sim = Netsim.Sim.create () in
  let raft = Control.Raft.create ~sim ~n:5 () in
  ignore (Netsim.Sim.run ~until:2.0 sim);
  check "first commit" true (Control.Raft.propose raft "op1");
  ignore (Netsim.Sim.run ~until:3.0 sim);
  let old_leader =
    match Control.Raft.leader raft with
    | Some l -> l.Control.Raft.id
    | None -> Alcotest.fail "no leader"
  in
  Control.Raft.kill raft old_leader;
  ignore (Netsim.Sim.run ~until:6.0 sim);
  (match Control.Raft.leader raft with
   | Some l ->
     check "new leader differs" true (l.Control.Raft.id <> old_leader);
     (* acknowledged command survived on the new leader *)
     check "op1 retained" true
       (List.mem "op1" (Control.Raft.committed_commands l))
   | None -> Alcotest.fail "no new leader after failure");
  check "second op commits on new leader" true (Control.Raft.propose raft "op2");
  ignore (Netsim.Sim.run ~until:8.0 sim);
  (* revive the old leader: it must catch up, not diverge *)
  Control.Raft.revive raft old_leader;
  ignore (Netsim.Sim.run ~until:12.0 sim);
  let revived = Control.Raft.node raft old_leader in
  check "revived node caught up" true
    (List.mem "op2" (Control.Raft.committed_commands revived));
  check_int "four alive + revived" 5 (Control.Raft.alive_count raft)

let test_raft_no_leader_without_majority () =
  let sim = Netsim.Sim.create () in
  let raft = Control.Raft.create ~sim ~n:3 () in
  ignore (Netsim.Sim.run ~until:1.0 sim);
  Control.Raft.kill raft 0;
  Control.Raft.kill raft 1;
  (match Control.Raft.leader raft with
   | Some l -> Control.Raft.kill raft l.Control.Raft.id
   | None -> ());
  Control.Raft.revive raft 0;
  (* only 1-2 nodes alive at most briefly; with 2 alive majority is
     possible again, so instead verify proposals fail with none *)
  let alive = Control.Raft.alive_count raft in
  check "fewer than majority alive or recovering" true (alive <= 2)

(* -- Controller integration -------------------------------------------------- *)

let mk_controlled_net () =
  let sim = Netsim.Sim.create () in
  let built = Netsim.Topology.linear ~sim ~switches:3 () in
  let topo = built.Netsim.Topology.topo in
  let devs =
    List.map
      (fun sw -> Targets.Device.create ~id:sw.Netsim.Node.name Targets.Arch.drmt)
      built.Netsim.Topology.switch_list
  in
  let wireds =
    List.map2
      (fun sw d -> Runtime.Wiring.attach topo sw d)
      built.Netsim.Topology.switch_list devs
  in
  (sim, topo, devs, wireds)

let test_controller_ha_journaling () =
  let sim, topo, devs, wireds = mk_controlled_net () in
  let ctl = Control.Controller.create ~sim ~topo ~wireds in
  let raft = Control.Raft.create ~sim ~n:3 () in
  Control.Controller.enable_ha ctl raft;
  (* let the cluster elect, then perform journaled management ops *)
  ignore (Netsim.Sim.run ~until:1.0 sim);
  let uri = Control.Uri.v ~owner:"infra" "scrubber" in
  ignore
    (Control.Controller.register_app ctl ~uri ~kind:Control.Controller.Utility
       ~program:(Apps.Scrubber.program ()) ~replicas:[]);
  (match Control.Controller.inject_on ctl uri ~device:(List.hd devs) with
   | Ok () -> ()
   | Error e -> Alcotest.failf "inject: %a" Control.Controller.pp_op_error e);
  ignore (Netsim.Sim.run ~until:2.0 sim);
  (* the command log on the leader records both operations *)
  (match Control.Raft.leader raft with
   | None -> Alcotest.fail "no leader"
   | Some l ->
     let cmds = Control.Raft.committed_commands l in
     check "register journaled" true
       (List.exists (fun c -> c = "register flexnet://infra/scrubber") cmds);
     check "inject journaled" true
       (List.exists (fun c -> c = "inject flexnet://infra/scrubber on s0") cmds))

let test_controller_migrates_stateful_app () =
  let sim, _topo, devs, wireds = mk_controlled_net () in
  let ctl = Control.Controller.create ~sim ~topo:_topo ~wireds in
  let cfg = { Apps.Cm_sketch.depth = 2; width = 64; map_name = "cms" } in
  let prog = Apps.Cm_sketch.program ~cfg () in
  let s0 = List.nth devs 0 and s2 = List.nth devs 2 in
  List.iteri
    (fun i el -> ignore (Targets.Device.install s0 ~ctx:prog ~order:i el))
    prog.Flexbpf.Ast.pipeline;
  List.iteri
    (fun i el -> ignore (Targets.Device.install s2 ~ctx:prog ~order:i el))
    prog.Flexbpf.Ast.pipeline;
  let uri = Control.Uri.v ~owner:"infra" "sketch" in
  let app =
    Control.Controller.register_app ctl ~uri ~kind:Control.Controller.Utility
      ~program:prog ~replicas:[ s0 ]
  in
  app.Control.Controller.handle <- Some (Runtime.Migration.create s0);
  (* accumulate state on s0 *)
  (match Targets.Device.map_state s0 "cms" with
   | Some st -> Flexbpf.State.put st [| 0L; 5L |] 42L
   | None -> Alcotest.fail "sketch map missing");
  let migrated = ref false in
  (match
     Control.Controller.migrate ctl uri ~to_device:s2
       ~on_done:(fun () -> migrated := true)
       ()
   with
   | Ok () -> ()
   | Error e -> Alcotest.failf "migrate: %a" Control.Controller.pp_op_error e);
  ignore (Netsim.Sim.run sim);
  check "migration completed" true !migrated;
  Alcotest.(check (list string)) "app relocated" [ "s2" ]
    (Control.Controller.app_locations ctl uri);
  (match Targets.Device.map_state s2 "cms" with
   | Some st ->
     Alcotest.(check int64) "state travelled" 42L (Flexbpf.State.get st [| 0L; 5L |])
   | None -> Alcotest.fail "map missing at destination")

let test_controller_expand_map () =
  let sim, topo, _devs, wireds = mk_controlled_net () in
  let ctl = Control.Controller.create ~sim ~topo ~wireds in
  let uri = Control.Uri.v ~owner:"infra" "fw" in
  ignore
    (Control.Controller.register_app ctl ~uri ~kind:Control.Controller.Utility
       ~program:(Apps.Firewall.program ()) ~replicas:[]);
  (match Control.Controller.expand_map ctl uri ~map_name:"fw_conn" ~factor:4 with
   | Ok () -> ()
   | Error e -> Alcotest.failf "expand: %a" Control.Controller.pp_op_error e);
  (match Control.Controller.lookup ctl uri with
   | Some app ->
     let m =
       Option.get (Flexbpf.Ast.find_map app.Control.Controller.program "fw_conn")
     in
     check_int "map grew 4x" (8192 * 4) m.Flexbpf.Ast.map_size
   | None -> Alcotest.fail "app missing");
  check "unknown map rejected" true
    (Result.is_error
       (Control.Controller.expand_map ctl uri ~map_name:"ghost" ~factor:2))

(* O(Δ) admission: admitting one tenant at 200 resident tenants
   allocates at most 3x what it does at 20 (whole-program checking and
   compiling made it 5x). Admission type-checks and compiles only what
   its patch changes; what still grows with the resident count is the
   copying of list spines (pipeline, placements, map declarations), a
   few words per resident element. [Gc.minor_words] counts exactly what
   the admission allocated, and the same inputs allocate the same, so
   the bound is deterministic. *)
let admission_words ~residents =
  let sim = Netsim.Sim.create () in
  let _path, dep = mk_deployment () in
  let tenants = Control.Tenants.create ~sim dep in
  let counter owner =
    program ~owner "counter"
      ~maps:[ map_decl ~key_arity:1 ~size:16 "hits" ]
      [ block "count" [ map_incr "hits" [ field "ipv4" "src" ] ] ]
  in
  let admit ext =
    match
      Control.Tenants.admit tenants ~cert:(Flexbpf.Analysis.certify ext) ext
    with
    | Ok _ -> ()
    | Error e ->
      Alcotest.failf "admit %s: %a" ext.Flexbpf.Ast.owner
        Control.Tenants.pp_admission_error e
  in
  for i = 1 to residents do
    admit (counter (Printf.sprintf "r%03d" i))
  done;
  let probe = counter "probe" in
  let cert = Flexbpf.Analysis.certify probe in
  let w0 = Gc.minor_words () in
  (match Control.Tenants.admit tenants ~cert probe with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "admit probe: %a" Control.Tenants.pp_admission_error e);
  Gc.minor_words () -. w0

let test_admission_cost_flat () =
  let w20 = admission_words ~residents:20 in
  let w200 = admission_words ~residents:200 in
  check
    (Printf.sprintf
       "admission words %.0f at 200 residents <= 3x %.0f at 20" w200 w20)
    true
    (w200 <= 3. *. w20)

let () =
  Alcotest.run "control"
    [ ( "uri",
        [ Alcotest.test_case "roundtrip" `Quick test_uri_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_uri_rejects_garbage ] );
      ( "device_api",
        [ Alcotest.test_case "rules+counters" `Quick test_device_api_rules ] );
      ( "tenants",
        [ Alcotest.test_case "lifecycle" `Quick test_tenant_admission_lifecycle;
          Alcotest.test_case "departure restores" `Quick
            test_tenant_departure_restores;
          Alcotest.test_case "rejections" `Quick test_tenant_rejection_paths;
          Alcotest.test_case "distinct vlans" `Quick test_tenant_vlans_distinct;
          Alcotest.test_case "certificate placement" `Quick
            test_certificate_placement;
          Alcotest.test_case "admission cost flat" `Quick
            test_admission_cost_flat ] );
      ( "elastic",
        [ Alcotest.test_case "scaling" `Quick test_elastic_scaling;
          Alcotest.test_case "cooldown" `Quick test_elastic_cooldown ] );
      ( "replication",
        [ Alcotest.test_case "sync+failover" `Quick test_replication_and_failover ] );
      ( "controller",
        [ Alcotest.test_case "HA journaling" `Quick test_controller_ha_journaling;
          Alcotest.test_case "stateful app migration" `Quick
            test_controller_migrates_stateful_app;
          Alcotest.test_case "expand map" `Quick test_controller_expand_map ] );
      ( "raft",
        [ Alcotest.test_case "elects leader" `Quick test_raft_elects_leader;
          Alcotest.test_case "replicates" `Quick test_raft_replicates_commands;
          Alcotest.test_case "leader failure" `Quick test_raft_survives_leader_failure;
          Alcotest.test_case "no majority" `Quick test_raft_no_leader_without_majority
        ] ) ]
