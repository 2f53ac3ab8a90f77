(* Tests for the FlexNet compiler: lowering, placement, the fungible
   GC loop, incremental recompilation, table merging, SLA checking, and
   energy consolidation. *)

open Flexbpf.Builder

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A whole-stack path: host stack, smartnic, three switches, smartnic,
   host stack — the physical slice of a fungible datapath. *)
let mk_path ?(arch = Targets.Arch.Drmt) () =
  [ Targets.Device.create ~id:"h0" Targets.Arch.host_ebpf;
    Targets.Device.create ~id:"nic0" Targets.Arch.smartnic;
    Targets.Device.create ~id:"s0" (Targets.Arch.profile_of_kind arch);
    Targets.Device.create ~id:"s1" (Targets.Arch.profile_of_kind arch);
    Targets.Device.create ~id:"s2" (Targets.Arch.profile_of_kind arch);
    Targets.Device.create ~id:"nic1" Targets.Arch.smartnic;
    Targets.Device.create ~id:"h1" Targets.Arch.host_ebpf ]

let heavy_block name = block name [ loop 64 [ set_meta "x" (const 1) ] ]

let small_table name =
  table name
    ~keys:[ exact (field "ipv4" "dst") ]
    ~actions:[ action "a" [ Flexbpf.Ast.Nop ] ]
    ~default:("a", []) ~size:64 ()

(* -- Lowering ------------------------------------------------------------ *)

let test_classification () =
  let t = small_table "t" in
  let cls el = fst (Compiler.Lowering.classify el) in
  check "tables prefer switches" true (cls t = Compiler.Lowering.Switch_preferred);
  check "heavy blocks are offload-only" true
    (cls (heavy_block "h") = Compiler.Lowering.Offload_only);
  let light = block "l" [ set_meta "x" (const 1) ] in
  check "light blocks anywhere" true (cls light = Compiler.Lowering.Anywhere);
  let caller = block "c" [ call "svc" [] ] in
  check "dRPC callers are offload-only" true
    (cls caller = Compiler.Lowering.Offload_only)

let test_class_allows () =
  check "offload not on switch" false
    (Compiler.Lowering.class_allows Compiler.Lowering.Offload_only Targets.Arch.Drmt);
  check "offload on nic" true
    (Compiler.Lowering.class_allows Compiler.Lowering.Offload_only
       Targets.Arch.Smartnic);
  check "table on switch" true
    (Compiler.Lowering.class_allows Compiler.Lowering.Switch_preferred
       Targets.Arch.Rmt)

(* -- Placement ------------------------------------------------------------- *)

let find_dev placement name =
  Option.map Targets.Device.id (Compiler.Placement.where placement name)

let test_vertical_split () =
  let path = mk_path () in
  let prog =
    program "vert" [ small_table "t1"; heavy_block "offload"; small_table "t2" ]
  in
  match Runtime.Reconfig.place ~path prog with
  | Error f -> Alcotest.failf "place: %a" Compiler.Placement.pp_failure f
  | Ok placement ->
    (* t1 prefers a switch *)
    Alcotest.(check (option string)) "t1 on first switch" (Some "s0")
      (find_dev placement "t1");
    (* heavy block cannot sit on a switch: it must land on nic1/h1
       (after s0, respecting pipeline order) *)
    (match find_dev placement "offload" with
     | Some ("nic1" | "h1") -> ()
     | d -> Alcotest.failf "offload on %s" (Option.value d ~default:"-"));
    (* t2 comes after the offload in pipeline order: placed at or after
       its device *)
    (match find_dev placement "t2" with
     | Some ("nic1" | "h1") -> ()
     | d -> Alcotest.failf "t2 on %s" (Option.value d ~default:"-"))

let test_order_preserved_along_path () =
  let path = mk_path () in
  let prog = program "o" (List.init 6 (fun i -> small_table (Printf.sprintf "t%d" i))) in
  match Runtime.Reconfig.place ~path prog with
  | Error f -> Alcotest.failf "place: %a" Compiler.Placement.pp_failure f
  | Ok placement ->
    let pos name =
      let dev = Option.get (Compiler.Placement.where placement name) in
      Option.get (Compiler.Placement.device_position path dev)
    in
    let ok = ref true in
    for i = 0 to 4 do
      if pos (Printf.sprintf "t%d" i) > pos (Printf.sprintf "t%d" (i + 1)) then
        ok := false
    done;
    check "non-decreasing path positions" true !ok

let test_placement_rollback () =
  (* an unplaceable program must leave the path untouched *)
  let path = [ Targets.Device.create ~id:"s0" Targets.Arch.drmt ] in
  let prog = program "bad" [ small_table "t"; heavy_block "won't-fit" ] in
  match Runtime.Reconfig.place ~path prog with
  | Ok _ -> Alcotest.fail "expected failure: no offload target on path"
  | Error f ->
    check "failure names the block" true
      (Flexbpf.Ast.element_name f.Compiler.Placement.failed_unit.Compiler.Lowering.u_element
       = "won't-fit");
    check "transactional rollback" true
      (List.for_all
         (fun d -> Targets.Device.installed_names d = [])
         path)

let test_unplace () =
  let path = mk_path () in
  let prog = program "p" [ small_table "t1"; small_table "t2" ] in
  match Runtime.Reconfig.place ~path prog with
  | Error _ -> Alcotest.fail "place"
  | Ok placement ->
    Runtime.Reconfig.unplace placement;
    check "everything removed" true
      (List.for_all (fun d -> Targets.Device.installed_names d = []) path)

let test_oversubscribed_residency_planned () =
  (* a table bigger than any single RMT stage used to fail placement;
     now the planner admits it with a clamped device tier and the plan
     carries the residency (which table, how many rules resident, the
     predicted miss rate) as a first-class admission decision *)
  let path = mk_path ~arch:Targets.Arch.Rmt () in
  let huge =
    table "huge"
      ~keys:[ exact (field "ipv4" "dst") ]
      ~actions:[ action "a" [ Flexbpf.Ast.Nop ] ]
      ~default:("a", []) ~size:150_000 ()
  in
  let prog = program "over" [ small_table "front"; huge ] in
  match Compiler.Placement.plan ~path prog with
  | Error f -> Alcotest.failf "plan: %a" Compiler.Placement.pp_failure f
  | Ok planned ->
    let plan = planned.Compiler.Placement.pln_plan in
    check_int "exactly one oversubscribed table" 1
      (List.length plan.Compiler.Plan.residency);
    let r = List.hd plan.Compiler.Plan.residency in
    check "residency names the table" true
      (r.Targets.Resource.res_table = "huge");
    check "device tier clamped below logical size" true
      (r.Targets.Resource.res_device_rules > 0
       && r.Targets.Resource.res_device_rules
          < r.Targets.Resource.res_logical_rules);
    check "predicted miss rate in (0,1)" true
      (r.Targets.Resource.res_miss_rate > 0.
       && r.Targets.Resource.res_miss_rate < 1.);
    (* the fully-resident table contributes no residency entry *)
    check "small table fully resident" true
      (List.for_all
         (fun (res : Targets.Resource.residency) ->
           res.Targets.Resource.res_table <> "front")
         plan.Compiler.Plan.residency)

(* -- Fungible loop ------------------------------------------------------------ *)

let big_table ?(size = 80_000) name =
  table name
    ~keys:[ exact (field "ipv4" "dst") ]
    ~actions:[ action "a" [ Flexbpf.Ast.Nop ] ]
    ~default:("a", []) ~size ()

let test_gc_enables_placement () =
  (* one switch, pre-filled with idle apps; a new program only fits
     after the fungible compiler garbage-collects them. Since tiered
     virtualization a stage with any slack admits a table at reduced
     residency, so the prefill uses oversubscribed tables that pack
     every stage down to less than one rule's bytes — only then is a
     new table genuinely unplaceable. *)
  let sw = Targets.Device.create ~id:"s0" Targets.Arch.rmt in
  let path = [ sw ] in
  (* pack every stage to the byte with one oversubscribed idle table *)
  let idle_names = List.init 12 (fun i -> Printf.sprintf "idle%d" i) in
  let idle_prog =
    program "idle" (List.map (big_table ~size:200_000) idle_names)
  in
  (match Runtime.Reconfig.place ~path idle_prog with
   | Ok _ -> ()
   | Error f -> Alcotest.failf "prefill: %a" Compiler.Placement.pp_failure f);
  let new_prog = program "new" [ big_table "fresh" ] in
  (* one-shot compilation fails *)
  let once = Runtime.Reconfig.place_once ~path new_prog in
  check "bin-packing baseline fails" true (once.Runtime.Reconfig.placement = None);
  (* fungible loop GCs the idle apps and succeeds *)
  let removable dev =
    List.filter
      (fun n -> String.length n >= 4 && String.sub n 0 4 = "idle")
      (Targets.Device.installed_names dev)
  in
  let outcome = Runtime.Reconfig.place_with_gc ~path ~removable new_prog in
  check "fungible loop succeeds" true
    (outcome.Runtime.Reconfig.placement <> None);
  check "iterated" true (outcome.Runtime.Reconfig.iterations > 1);
  check "reclaimed idle apps" true (outcome.Runtime.Reconfig.gc_removed <> [])

let test_gc_loop_terminates () =
  (* nothing removable and nothing fits (stages packed to the byte, so
     not even a clamped device tier squeezes in): loop must stop *)
  let sw = Targets.Device.create ~id:"s0" Targets.Arch.rmt in
  let path = [ sw ] in
  let pinned =
    program "pinned"
      (List.init 12 (fun i -> big_table ~size:200_000 (Printf.sprintf "p%d" i)))
  in
  ignore (Runtime.Reconfig.place ~path pinned);
  let outcome =
    Runtime.Reconfig.place_with_gc ~path
      ~removable:(fun _ -> [])
      (program "new" [ big_table "fresh" ])
  in
  check "fails cleanly" true (outcome.Runtime.Reconfig.placement = None);
  check "did not spin" true (outcome.Runtime.Reconfig.iterations <= 4)

(* -- Incremental recompilation -------------------------------------------------- *)

let base_prog = Apps.L2l3.program ()

let test_deploy_and_patch_few_moves () =
  let path = mk_path () in
  match Runtime.Reconfig.deploy ~path base_prog with
  | Error f -> Alcotest.failf "deploy: %a" Compiler.Placement.pp_failure f
  | Ok dep ->
    let installed_before =
      List.length dep.Compiler.Incremental.dep_placement.Compiler.Placement.where
    in
    let patch =
      Flexbpf.Patch.v "add-fw"
        [ Flexbpf.Patch.Add_map (Apps.Firewall.conn_map ());
          Flexbpf.Patch.Add_map Apps.Firewall.denied_map;
          Flexbpf.Patch.Add_element
            (Flexbpf.Patch.Before (Flexbpf.Patch.Sel_name "ipv4_lpm"),
             Apps.Firewall.block ~boundary:100 ()) ]
    in
    (match Runtime.Reconfig.apply_patch dep patch with
     | Error e -> Alcotest.failf "patch: %a" Compiler.Incremental.pp_error e
     | Ok (report, _diff) ->
       check_int "exactly one element moved" 1
         report.Compiler.Incremental.moved_elements;
       check_int "one device touched" 1
         (List.length report.Compiler.Incremental.touched_devices);
       check "sub-second plan" true (report.Compiler.Incremental.duration < 1.);
       check_int "deployment grew by one" (installed_before + 1)
         (List.length dep.Compiler.Incremental.dep_placement.Compiler.Placement.where))

let test_adjacent_placement () =
  (* the inserted element lands on the same device as its pipeline
     neighbours (maximal adjacency) *)
  let path = mk_path () in
  match Runtime.Reconfig.deploy ~path base_prog with
  | Error _ -> Alcotest.fail "deploy"
  | Ok dep ->
    let lpm_dev =
      Option.get (Compiler.Placement.where dep.Compiler.Incremental.dep_placement "ipv4_lpm")
    in
    let patch =
      Flexbpf.Patch.v "insert"
        [ Flexbpf.Patch.Add_element
            (Flexbpf.Patch.Before (Flexbpf.Patch.Sel_name "ipv4_lpm"),
             small_table "inserted") ]
    in
    (match Runtime.Reconfig.apply_patch dep patch with
     | Error e -> Alcotest.failf "patch: %a" Compiler.Incremental.pp_error e
     | Ok _ ->
       let ins_dev =
         Option.get
           (Compiler.Placement.where dep.Compiler.Incremental.dep_placement "inserted")
       in
       Alcotest.(check string) "inserted adjacent to lpm"
         (Targets.Device.id lpm_dev) (Targets.Device.id ins_dev))

let test_remove_patch_releases () =
  let path = mk_path () in
  match Runtime.Reconfig.deploy ~path base_prog with
  | Error _ -> Alcotest.fail "deploy"
  | Ok dep ->
    let patch =
      Flexbpf.Patch.v "rm-acl"
        [ Flexbpf.Patch.Remove_element (Flexbpf.Patch.Sel_name "acl") ]
    in
    (match Runtime.Reconfig.apply_patch dep patch with
     | Error e -> Alcotest.failf "patch: %a" Compiler.Incremental.pp_error e
     | Ok (report, _) ->
       check "acl uninstalled everywhere" true
         (List.for_all
            (fun d -> not (List.mem "acl" (Targets.Device.installed_names d)))
            path);
       check "where updated" true
         (Compiler.Placement.where dep.Compiler.Incremental.dep_placement "acl" = None);
       check_int "one op" 1 (Compiler.Plan.size report.Compiler.Incremental.plan))

let test_replace_carries_state () =
  (* replacing a stateful element preserves its map contents *)
  let path = mk_path () in
  let counter = block "cnt" [ map_incr "hits" [ const 0 ] ] in
  let prog =
    program "stateful" ~maps:[ map_decl ~key_arity:1 ~size:16 "hits" ] [ counter ]
  in
  match Runtime.Reconfig.deploy ~path prog with
  | Error _ -> Alcotest.fail "deploy"
  | Ok dep ->
    let dev = Option.get (Compiler.Placement.where dep.Compiler.Incremental.dep_placement "cnt") in
    (match Targets.Device.map_state dev "hits" with
     | Some st -> Flexbpf.State.put st [| 0L |] 77L
     | None -> Alcotest.fail "map missing");
    let counter2 = block "cnt" [ map_incr "hits" [ const 1 ] ] in
    let patch =
      Flexbpf.Patch.v "swap"
        [ Flexbpf.Patch.Replace_element (Flexbpf.Patch.Sel_name "cnt", counter2) ]
    in
    (match Runtime.Reconfig.apply_patch dep patch with
     | Error e -> Alcotest.failf "patch: %a" Compiler.Incremental.pp_error e
     | Ok _ ->
       let dev' =
         Option.get (Compiler.Placement.where dep.Compiler.Incremental.dep_placement "cnt")
       in
       (match Targets.Device.map_state dev' "hits" with
        | Some st ->
          Alcotest.(check int64) "state carried over" 77L (Flexbpf.State.get st [| 0L |])
        | None -> Alcotest.fail "map missing after replace"))

let test_incremental_beats_full_recompile () =
  let path = mk_path () in
  match Runtime.Reconfig.deploy ~path base_prog with
  | Error _ -> Alcotest.fail "deploy"
  | Ok dep ->
    let patch =
      Flexbpf.Patch.v "small-change"
        [ Flexbpf.Patch.Add_element (Flexbpf.Patch.At_end, small_table "extra") ]
    in
    let inc_report =
      match Runtime.Reconfig.apply_patch dep patch with
      | Ok (r, _) -> r
      | Error e -> Alcotest.failf "patch: %a" Compiler.Incremental.pp_error e
    in
    (* second path, same starting deployment, full recompile *)
    let path2 = mk_path () in
    (match Runtime.Reconfig.deploy ~path:path2 base_prog with
     | Error _ -> Alcotest.fail "deploy2"
     | Ok dep2 ->
       let new_prog = dep.Compiler.Incremental.dep_prog in
       (match Runtime.Reconfig.full_recompile dep2 new_prog with
        | Error e -> Alcotest.failf "recompile: %a" Compiler.Incremental.pp_error e
        | Ok full_report ->
          check "incremental moves fewer elements" true
            (inc_report.Compiler.Incremental.moved_elements
             < full_report.Compiler.Incremental.moved_elements);
          check "incremental is orders of magnitude faster" true
            (inc_report.Compiler.Incremental.duration
             < full_report.Compiler.Incremental.duration /. 10.)))

let test_parser_patch_propagates () =
  let path = mk_path () in
  match Runtime.Reconfig.deploy ~path base_prog with
  | Error _ -> Alcotest.fail "deploy"
  | Ok dep ->
    let patch =
      Flexbpf.Patch.v "gre"
        [ Flexbpf.Patch.Add_header (header "gre" [ ("proto", 16) ]);
          Flexbpf.Patch.Add_parser_rule (parser_rule "parse_gre" [ "ethernet"; "gre" ]) ]
    in
    (match Runtime.Reconfig.apply_patch dep patch with
     | Error e -> Alcotest.failf "patch: %a" Compiler.Incremental.pp_error e
     | Ok (report, diff) ->
       check "diff flags parser" true diff.Flexbpf.Patch.parser_changed;
       check "parser ops emitted" true
         (List.exists
            (function Compiler.Plan.Add_parser _ -> true | _ -> false)
            report.Compiler.Incremental.plan.Compiler.Plan.ops))

(* -- Table merging ------------------------------------------------------------------ *)

let acl_table =
  table "acl2"
    ~keys:[ exact (field "ipv4" "src") ]
    ~actions:
      [ action "mark" ~params:[ "v" ] [ set_meta "mark" (param "v") ];
        action "skip" [ Flexbpf.Ast.Nop ] ]
    ~default:("skip", []) ~size:100 ()

let route_table =
  table "route2"
    ~keys:[ exact (field "ipv4" "dst") ]
    ~actions:
      [ action "out" ~params:[ "p" ] [ forward (param "p") ];
        action "hold" [ Flexbpf.Ast.Nop ] ]
    ~default:("hold", []) ~size:100 ()

let as_table = function Flexbpf.Ast.Table t -> t | _ -> assert false

let test_merge_semantics () =
  let a = as_table acl_table and b = as_table route_table in
  let merged = Compiler.Merge.merge_tables a b in
  check_int "keys concatenated" 2 (List.length merged.Flexbpf.Ast.keys);
  (* each side has mark/out, skip/hold, and the builder-added nop *)
  check_int "actions cross product" 9 (List.length merged.Flexbpf.Ast.tbl_actions);
  check_int "size cross product" (100 * 100) merged.Flexbpf.Ast.tbl_size;
  (* merged program behaves like running both tables *)
  let prog = program "merged" [ Flexbpf.Ast.Table merged ] in
  let env = Flexbpf.Interp.create_env prog in
  let rules =
    Compiler.Merge.merge_rules
      [ rule ~matches:[ exact_i 1 ] ~action:("mark", [ 7 ]) () ]
      [ rule ~matches:[ exact_i 2 ] ~action:("out", [ 3 ]) () ]
  in
  List.iter (Flexbpf.Interp.install_rule env merged.Flexbpf.Ast.tbl_name) rules;
  let pkt =
    Netsim.Packet.create
      [ Netsim.Packet.ethernet ~src:1L ~dst:2L ();
        Netsim.Packet.ipv4 ~src:1L ~dst:2L () ]
  in
  let r = Flexbpf.Interp.run env prog pkt in
  Alcotest.(check (option int)) "route action applied" (Some 3)
    r.Flexbpf.Interp.verdict.Flexbpf.Interp.egress;
  Alcotest.(check int64) "acl action applied" 7L
    (Netsim.Packet.meta_default pkt "mark" 0L)

let test_merge_tradeoff () =
  let a = as_table acl_table and b = as_table route_table in
  let rules_a = List.init 20 (fun i -> rule ~matches:[ exact_i i ] ~action:("mark", [ i ]) ()) in
  let rules_b = List.init 20 (fun i -> rule ~matches:[ exact_i i ] ~action:("out", [ i ]) ()) in
  let ctx = program "ctx" [ acl_table; route_table ] in
  let cost =
    Compiler.Merge.evaluate ~profile:Targets.Arch.drmt ~ctx a b ~rules_a ~rules_b
  in
  check "entries blow up" true
    (cost.Compiler.Merge.entries_after > cost.Compiler.Merge.entries_before);
  check "memory grows" true (cost.Compiler.Merge.extra_bytes > 0);
  check "latency improves" true (cost.Compiler.Merge.latency_saved_ns > 0.)

let test_merge_chain () =
  let mk name = as_table (small_table name) in
  let merged = Compiler.Merge.merge_chain [ mk "a"; mk "b"; mk "c" ] in
  check_int "chained keys" 3 (List.length merged.Flexbpf.Ast.keys)

(* -- SLA ------------------------------------------------------------------------------ *)

let test_sla_estimate_and_certify () =
  let path = mk_path () in
  let prog = program "p" [ small_table "t" ] in
  match Runtime.Reconfig.place ~path prog with
  | Error _ -> Alcotest.fail "place"
  | Ok placement ->
    let e = Compiler.Sla.estimate placement in
    check "latency positive" true (e.Compiler.Sla.added_latency_ns > 0.);
    let lax =
      { Compiler.Sla.max_added_latency_ns = 1e9; min_throughput_pps = 1. }
    in
    check "lax SLA met" true (Compiler.Sla.certify lax placement = Compiler.Sla.Meets);
    let strict =
      { Compiler.Sla.max_added_latency_ns = 1.; min_throughput_pps = 1e12 }
    in
    (match Compiler.Sla.certify strict placement with
     | Compiler.Sla.Violates problems -> check_int "both violated" 2 (List.length problems)
     | Compiler.Sla.Meets -> Alcotest.fail "strict SLA cannot be met")

let test_sla_penalizes_host_placement () =
  (* same program on a switch-only slice vs host-only slice *)
  let sw_path = [ Targets.Device.create ~id:"s" Targets.Arch.drmt ] in
  let host_path = [ Targets.Device.create ~id:"h" Targets.Arch.host_ebpf ] in
  let prog = program "p" [ small_table "t" ] in
  let est path =
    match Runtime.Reconfig.place ~path prog with
    | Ok p -> Compiler.Sla.estimate p
    | Error _ -> Alcotest.fail "place"
  in
  let sw = est sw_path and host = est host_path in
  check "switch placement much faster" true
    (sw.Compiler.Sla.added_latency_ns *. 5. < host.Compiler.Sla.added_latency_ns)

(* -- Energy ---------------------------------------------------------------------------- *)

let test_consolidation_powers_off () =
  let path = mk_path () in
  (* spread small tables across all three switches by filling order *)
  let prog =
    program "spread"
      [ small_table "t0"; heavy_block "ob0"; small_table "t1" ]
  in
  match Runtime.Reconfig.place ~path prog with
  | Error f -> Alcotest.failf "place: %a" Compiler.Placement.pp_failure f
  | Ok placement ->
    let report = Runtime.Reconfig.consolidate placement in
    check "energy reduced or equal" true
      (report.Compiler.Energy.watts_after <= report.Compiler.Energy.watts_before);
    (* devices that ended empty are off *)
    List.iter
      (fun d ->
        if Targets.Device.installed_names d = [] && List.mem
             (Targets.Device.id d)
             (report.Compiler.Energy.powered_off)
        then check "off device is off" false (Targets.Device.powered_on d))
      path;
    Compiler.Energy.expand path;
    check "expand powers all on" true
      (List.for_all Targets.Device.powered_on path)

let test_consolidation_carries_rules () =
  (* a table drained onto another device keeps its rules: a packet that
     hit before the move still hits on the destination *)
  let fwd =
    table "fwd"
      ~keys:[ exact (field "ipv4" "dst") ]
      ~actions:[ action "out" ~params:[ "p" ] [ forward (param "p") ] ]
      ~default:("nop", []) ~size:16 ()
  in
  let big =
    table "big"
      ~keys:[ exact (field "ipv4" "dst") ]
      ~actions:[ action "a" [ Flexbpf.Ast.Nop ] ]
      ~default:("a", []) ~size:30_000 ()
  in
  let prog = program "p" [ fwd; big ] in
  let d0 = Targets.Device.create ~id:"s0" Targets.Arch.drmt in
  let d1 = Targets.Device.create ~id:"s1" Targets.Arch.drmt in
  List.iteri
    (fun i (dev, el) ->
      match Targets.Device.install dev ~ctx:prog ~order:i el with
      | Ok _ -> ()
      | Error r ->
        Alcotest.failf "install: %s" (Targets.Resource.reject_to_string r))
    [ (d0, fwd); (d1, big) ];
  Flexbpf.Interp.install_rule (Targets.Device.env d0) "fwd"
    (rule ~matches:[ exact_i 2 ] ~action:("out", [ 7 ]) ());
  let placement =
    { Compiler.Placement.path = [ d0; d1 ]; prog;
      where = [ ("fwd", d0); ("big", d1) ] }
  in
  let report = Runtime.Reconfig.consolidate placement in
  check_int "one move" 1 (Compiler.Plan.size report.Compiler.Energy.plan);
  Alcotest.(check (list string)) "drained device off" [ "s0" ]
    report.Compiler.Energy.powered_off;
  Alcotest.(check (option string)) "placement updated" (Some "s1")
    (find_dev placement "fwd");
  let pkt =
    Netsim.Packet.create
      [ Netsim.Packet.ethernet ~src:1L ~dst:2L ();
        Netsim.Packet.ipv4 ~src:1L ~dst:2L ();
        Netsim.Packet.tcp ~sport:10L ~dport:20L () ]
  in
  Alcotest.(check (option int)) "rule still hits after the move" (Some 7)
    (Targets.Device.exec d1 ~now_us:0L pkt).Flexbpf.Interp.verdict
      .Flexbpf.Interp.egress

let () =
  Alcotest.run "compiler"
    [ ( "lowering",
        [ Alcotest.test_case "classification" `Quick test_classification;
          Alcotest.test_case "class allows" `Quick test_class_allows ] );
      ( "placement",
        [ Alcotest.test_case "vertical split" `Quick test_vertical_split;
          Alcotest.test_case "order preserved" `Quick test_order_preserved_along_path;
          Alcotest.test_case "rollback" `Quick test_placement_rollback;
          Alcotest.test_case "unplace" `Quick test_unplace;
          Alcotest.test_case "oversubscribed residency planned" `Quick
            test_oversubscribed_residency_planned ] );
      ( "fungible",
        [ Alcotest.test_case "gc enables placement" `Quick test_gc_enables_placement;
          Alcotest.test_case "loop terminates" `Quick test_gc_loop_terminates ] );
      ( "incremental",
        [ Alcotest.test_case "few moves" `Quick test_deploy_and_patch_few_moves;
          Alcotest.test_case "adjacency" `Quick test_adjacent_placement;
          Alcotest.test_case "removal releases" `Quick test_remove_patch_releases;
          Alcotest.test_case "replace carries state" `Quick test_replace_carries_state;
          Alcotest.test_case "beats full recompile" `Quick
            test_incremental_beats_full_recompile;
          Alcotest.test_case "parser propagation" `Quick test_parser_patch_propagates ] );
      ( "merge",
        [ Alcotest.test_case "semantics" `Quick test_merge_semantics;
          Alcotest.test_case "tradeoff" `Quick test_merge_tradeoff;
          Alcotest.test_case "chain" `Quick test_merge_chain ] );
      ( "sla",
        [ Alcotest.test_case "estimate+certify" `Quick test_sla_estimate_and_certify;
          Alcotest.test_case "host penalty" `Quick test_sla_penalizes_host_placement ] );
      ( "energy",
        [ Alcotest.test_case "consolidation" `Quick test_consolidation_powers_off;
          Alcotest.test_case "consolidation carries rules" `Quick
            test_consolidation_carries_rules ] ) ]
