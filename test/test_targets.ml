(* Tests for the device targets: resource accounting, per-architecture
   admission (the fungibility taxonomy), execution, reconfiguration
   primitives, and two-version consistency. *)

open Flexbpf.Builder

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk_packet ?(src = 1L) ?(dst = 2L) () =
  Netsim.Packet.create
    [ Netsim.Packet.ethernet ~src ~dst ();
      Netsim.Packet.ipv4 ~src ~dst ();
      Netsim.Packet.tcp ~sport:10L ~dport:20L () ]

(* a table sized to consume most of an RMT stage's SRAM *)
let big_exact_table ?(size = 80_000) name =
  table name
    ~keys:[ exact (field "ipv4" "dst") ]
    ~actions:[ action "a" [ set_meta "x" (const 1) ] ]
    ~default:("a", []) ~size ()

let small_table name =
  table name
    ~keys:[ exact (field "ipv4" "dst") ]
    ~actions:[ action "fwd" ~params:[ "p" ] [ forward (param "p") ] ]
    ~default:("nop", []) ~size:16 ()

let lpm_table name =
  table name
    ~keys:[ lpm (field "ipv4" "dst") ]
    ~actions:[ action "a" [ Flexbpf.Ast.Nop ] ]
    ~default:("a", []) ~size:256 ()

let prog_of elements = program "ctx" elements

(* -- Resource vectors -------------------------------------------------- *)

let test_resource_arith () =
  let a = Targets.Resource.v ~sram_bytes:10 ~tcam_bytes:5 () in
  let b = Targets.Resource.v ~sram_bytes:3 ~action_slots:2 () in
  let s = Targets.Resource.add a b in
  check_int "add sram" 13 s.Targets.Resource.sram_bytes;
  check_int "add actions" 2 s.Targets.Resource.action_slots;
  let d = Targets.Resource.sub s b in
  check "sub restores" true (d = a);
  check "fits" true (Targets.Resource.fits b s);
  check "not fits" false (Targets.Resource.fits s b)

let test_resource_utilization () =
  let cap = Targets.Resource.v ~sram_bytes:100 ~tcam_bytes:50 () in
  let used = Targets.Resource.v ~sram_bytes:20 ~tcam_bytes:40 () in
  Alcotest.(check (float 1e-9)) "max dimension" 0.8
    (Targets.Resource.utilization ~used ~capacity:cap)

(* -- Architecture profiles ---------------------------------------------- *)

let test_profiles_sane () =
  List.iter
    (fun kind ->
      let p = Targets.Arch.profile_of_kind kind in
      check
        (Targets.Arch.kind_to_string kind ^ " has throughput")
        true (p.Targets.Arch.max_pps > 0.);
      check
        (Targets.Arch.kind_to_string kind ^ " has parser capacity")
        true (p.Targets.Arch.parser_capacity > 0))
    Targets.Arch.all_kinds

let test_switches_faster_than_hosts () =
  let lat kind =
    Targets.Arch.latency_ns (Targets.Arch.profile_of_kind kind) ~cycles:50
  in
  check "switch < nic < host latency ordering" true
    (lat Targets.Arch.Drmt < lat Targets.Arch.Smartnic
     && lat Targets.Arch.Smartnic < lat Targets.Arch.Host_ebpf)

let test_runtime_reconfig_under_a_second () =
  (* §2: "program changes complete within a second" on runtime-
     programmable switches *)
  List.iter
    (fun kind ->
      let r = (Targets.Arch.profile_of_kind kind).Targets.Arch.reconfig in
      check
        (Targets.Arch.kind_to_string kind ^ " table ops sub-second")
        true
        (r.Targets.Arch.t_add_table < 1. && r.Targets.Arch.t_parser_change < 1.);
      check
        (Targets.Arch.kind_to_string kind ^ " reflash much slower")
        true
        (r.Targets.Arch.t_full_reflash > 10. *. r.Targets.Arch.t_add_table))
    [ Targets.Arch.Drmt; Targets.Arch.Tiles; Targets.Arch.Elastic_pipe ]

(* -- Installation and admission ------------------------------------------ *)

let test_install_and_exec () =
  let dev = Targets.Device.create ~id:"d" Targets.Arch.drmt in
  let ctx = prog_of [ small_table "t" ] in
  (match Targets.Device.install dev ~ctx ~order:0 (small_table "t") with
   | Ok _ -> ()
   | Error r -> Alcotest.failf "install: %s" (Targets.Resource.reject_to_string r));
  Flexbpf.Interp.install_rule (Targets.Device.env dev) "t"
    (rule ~matches:[ exact_i 2 ] ~action:("fwd", [ 4 ]) ());
  let r = Targets.Device.exec dev ~now_us:0L (mk_packet ~dst:2L ()) in
  Alcotest.(check (option int)) "rule forwards" (Some 4)
    r.Flexbpf.Interp.verdict.Flexbpf.Interp.egress;
  check_int "processed counted" 1 (Targets.Device.processed dev)

let test_double_install_rejected () =
  let dev = Targets.Device.create Targets.Arch.drmt in
  let ctx = prog_of [ small_table "t" ] in
  ignore (Targets.Device.install dev ~ctx ~order:0 (small_table "t"));
  match Targets.Device.install dev ~ctx ~order:1 (small_table "t") with
  | Error (Targets.Resource.Unsupported _) -> ()
  | _ -> Alcotest.fail "expected duplicate rejection"

let test_uninstall_frees_resources () =
  let dev = Targets.Device.create Targets.Arch.drmt in
  let ctx = prog_of [ big_exact_table "big" ] in
  ignore (Targets.Device.install dev ~ctx ~order:0 (big_exact_table "big"));
  let used = Targets.Device.utilization dev in
  check "resources consumed" true (used > 0.);
  check "uninstall works" true (Targets.Device.uninstall dev "big");
  Alcotest.(check (float 1e-9)) "all freed" 0. (Targets.Device.utilization dev)

let test_rmt_stage_fragmentation () =
  (* RMT: a table must fit within ONE stage; total free space spread
     over stages does not help — the defining fungibility limit. Since
     tiered virtualization, overflow is no longer a hard rejection: a
     table that cannot be fully resident in any stage is admitted with
     a clamped device tier, so fragmentation shows up as residency
     rather than No_capacity. *)
  let dev = Targets.Device.create Targets.Arch.rmt in
  let stages = Targets.Arch.rmt.Targets.Arch.stages in
  (* two 25KB-entry exact tables (~825KB) per 1280KB stage: the second
     does not fully fit, so at most one fully-resident table per stage *)
  let ctx =
    prog_of (List.init (2 * stages) (fun i -> big_exact_table (Printf.sprintf "t%d" i)))
  in
  let full = ref 0 and oversubscribed = ref 0 in
  List.iteri
    (fun i el ->
      match Targets.Device.install dev ~ctx ~order:i el with
      | Error _ -> ()
      | Ok _ ->
        (match
           Targets.Resource.find_placed (Targets.Device.snapshot dev)
             (Flexbpf.Ast.element_name el)
         with
         | Some { Targets.Resource.pl_residency = None; _ } -> incr full
         | Some { Targets.Resource.pl_residency = Some _; _ } ->
           incr oversubscribed
         | None -> ()))
    ctx.Flexbpf.Ast.pipeline;
  (* each stage fully fits one 25k-entry table (825KB of 1280KB); the
     second one per stage only gets the stage's remainder as its
     device tier *)
  check_int "one fully-resident big table per stage" stages !full;
  check "overflow admitted oversubscribed, not rejected" true
    (!oversubscribed > 0)

let test_rmt_order_constraint () =
  (* element at a later pipeline position may not occupy an earlier
     stage than its predecessor *)
  let dev = Targets.Device.create Targets.Arch.rmt in
  let ctx = prog_of [ big_exact_table "a"; big_exact_table "b"; small_table "c" ] in
  let slot_of el order =
    match Targets.Device.install dev ~ctx ~order el with
    | Ok (Targets.Resource.In_stage s) -> s
    | Ok _ -> Alcotest.fail "expected stage slot"
    | Error r -> Alcotest.failf "install: %s" (Targets.Resource.reject_to_string r)
  in
  let sa = slot_of (big_exact_table "a") 0 in
  let sb = slot_of (big_exact_table "b") 1 in
  let sc = slot_of (small_table "c") 2 in
  check "monotonic stages" true (sa <= sb && sb <= sc);
  check "big tables in different stages" true (sb > sa)

let test_drmt_pool_fungible () =
  (* dRMT: the same workload that fragments RMT fits a memory pool of
     equal total size without stage limits *)
  let dev = Targets.Device.create Targets.Arch.drmt in
  let n = 18 in
  let ctx =
    prog_of (List.init n (fun i -> big_exact_table (Printf.sprintf "t%d" i)))
  in
  let installed = ref 0 in
  List.iteri
    (fun i el ->
      match Targets.Device.install dev ~ctx ~order:i el with
      | Ok Targets.Resource.In_pool -> incr installed
      | Ok _ -> Alcotest.fail "expected pool slot"
      | Error _ -> ())
    ctx.Flexbpf.Ast.pipeline;
  check "dRMT fits more than RMT's 12" true (!installed > 12)

let test_tiles_typed_capacity () =
  let dev = Targets.Device.create Targets.Arch.tiles in
  (* exact tables land in hash tiles, lpm in tcam tiles *)
  let ctx = prog_of [ small_table "e"; lpm_table "l" ] in
  (match Targets.Device.install dev ~ctx ~order:0 (small_table "e") with
   | Ok (Targets.Resource.In_tiles (Targets.Arch.Hash_tile, _)) -> ()
   | _ -> Alcotest.fail "exact table should use hash tiles");
  (match Targets.Device.install dev ~ctx ~order:1 (lpm_table "l") with
   | Ok (Targets.Resource.In_tiles (Targets.Arch.Tcam_tile, _)) -> ()
   | _ -> Alcotest.fail "lpm table should use tcam tiles");
  (* exhaust tcam tiles: 8 tiles of 768KB; each lpm_table of 50k entries
     consumes multiple tiles *)
  let big_lpm i =
    table (Printf.sprintf "biglpm%d" i)
      ~keys:[ lpm (field "ipv4" "dst") ]
      ~actions:[ action "a" [ Flexbpf.Ast.Nop ] ]
      ~default:("a", []) ~size:100_000 ()
  in
  let ctx2 = prog_of (List.init 8 big_lpm) in
  let accepted = ref 0 in
  List.iteri
    (fun i el ->
      match Targets.Device.install dev ~ctx:ctx2 ~order:(10 + i) el with
      | Ok _ -> incr accepted
      | Error _ -> ())
    ctx2.Flexbpf.Ast.pipeline;
  check "tcam tiles exhaust before hash tiles" true (!accepted < 8);
  (* hash tiles still have room *)
  (match Targets.Device.install dev ~ctx ~order:50 (small_table "e2") with
   | Ok (Targets.Resource.In_tiles (Targets.Arch.Hash_tile, _)) -> ()
   | _ -> Alcotest.fail "hash tiles should still admit")

let test_elastic_pem_for_blocks () =
  let dev = Targets.Device.create Targets.Arch.elastic_pipe in
  let blk = block "b" [ set_meta "x" (const 1) ] in
  let ctx = prog_of [ blk ] in
  (match Targets.Device.install dev ~ctx ~order:0 blk with
   | Ok Targets.Resource.In_pem -> ()
   | _ -> Alcotest.fail "blocks should use PEM slots");
  (* PEM slots are finite *)
  let accepted = ref 0 in
  for i = 1 to 20 do
    let b = block (Printf.sprintf "b%d" i) [ set_meta "x" (const 1) ] in
    let ctx = prog_of [ b ] in
    match Targets.Device.install dev ~ctx ~order:i b with
    | Ok _ -> incr accepted
    | Error _ -> ()
  done;
  check_int "PEM slots bounded" (Targets.Arch.elastic_pipe.Targets.Arch.pem_slots - 1)
    !accepted

(* An elastic pipe's occupancy counts its PEM slots: with every block in
   the PEM and no stage used, the device reads as loaded in proportion
   to its slots, not as empty — energy consolidation would otherwise
   drain other devices onto a full one. *)
let test_elastic_pem_occupancy () =
  let dev = Targets.Device.create Targets.Arch.elastic_pipe in
  let slots = Targets.Arch.elastic_pipe.Targets.Arch.pem_slots in
  for i = 1 to slots / 2 do
    let b = block (Printf.sprintf "b%d" i) [ set_meta "x" (const 1) ] in
    match Targets.Device.install dev ~ctx:(prog_of [ b ]) ~order:i b with
    | Ok Targets.Resource.In_pem -> ()
    | _ -> Alcotest.fail "blocks should use PEM slots"
  done;
  Alcotest.(check (float 1e-9)) "half the PEM slots" 0.5
    (Targets.Device.utilization dev)

let test_block_cycle_limits () =
  (* a heavy eBPF-style block is rejected by switches, admitted by hosts *)
  let heavy = block "heavy" [ loop 64 [ set_meta "x" (const 1) ] ] in
  let ctx = prog_of [ heavy ] in
  let try_on kind =
    let dev = Targets.Device.create (Targets.Arch.profile_of_kind kind) in
    Targets.Device.install dev ~ctx ~order:0 heavy
  in
  (match try_on Targets.Arch.Drmt with
   | Error (Targets.Resource.Unsupported _) -> ()
   | _ -> Alcotest.fail "switch should reject heavy block");
  (match try_on Targets.Arch.Host_ebpf with
   | Ok _ -> ()
   | Error r -> Alcotest.failf "host should admit: %s" (Targets.Resource.reject_to_string r))

let test_map_charged_once () =
  let dev = Targets.Device.create Targets.Arch.drmt in
  let shared_map = map_decl ~key_arity:1 ~size:1024 "shared" in
  let b1 = block "b1" [ map_incr "shared" [ const 0 ] ] in
  let b2 = block "b2" [ map_incr "shared" [ const 1 ] ] in
  let ctx = program "ctx" ~maps:[ shared_map ] [ b1; b2 ] in
  let d1, maps1 =
    Targets.Resource.element_demand (Targets.Device.snapshot dev) ~ctx b1
  in
  ignore (Targets.Device.install dev ~ctx ~order:0 b1);
  let d2, maps2 =
    Targets.Resource.element_demand (Targets.Device.snapshot dev) ~ctx b2
  in
  check "first element pays for the map" true
    (d1.Targets.Resource.sram_bytes > d2.Targets.Resource.sram_bytes);
  check_int "map charged to first" 1 (List.length maps1);
  check_int "not charged twice" 0 (List.length maps2)

let test_oversubscribed_table_admitted () =
  (* an exact table whose rule memory exceeds a whole RMT stage used to
     be a hard No_capacity rejection; admission now treats the overflow
     as policy — clamp the device tier to what fits, record the
     residency, and let the host tier hold the rest *)
  let dev = Targets.Device.create Targets.Arch.rmt in
  let tbl = big_exact_table ~size:150_000 "huge" in
  let ctx = prog_of [ tbl ] in
  let demand, _ =
    Targets.Resource.element_demand (Targets.Device.snapshot dev) ~ctx tbl
  in
  check "logical demand exceeds a stage" true
    (demand.Targets.Resource.sram_bytes
     > Targets.Arch.rmt.Targets.Arch.per_stage.Targets.Resource.sram_bytes);
  (match Targets.Device.install dev ~ctx ~order:0 tbl with
   | Error r ->
     Alcotest.failf "oversubscribed install rejected: %s"
       (Targets.Resource.reject_to_string r)
   | Ok _ -> ());
  (* the snapshot carries the residency, the env carries the tier cap *)
  (match Targets.Resource.find_placed (Targets.Device.snapshot dev) "huge" with
   | Some { Targets.Resource.pl_residency = Some r; _ } ->
     check_int "logical rules" 150_000 r.Targets.Resource.res_logical_rules;
     check "device tier strictly smaller" true
       (r.Targets.Resource.res_device_rules > 0
        && r.Targets.Resource.res_device_rules < 150_000);
     check "predicted miss rate in (0,1)" true
       (r.Targets.Resource.res_miss_rate > 0.
        && r.Targets.Resource.res_miss_rate < 1.)
   | Some { Targets.Resource.pl_residency = None; _ } ->
     Alcotest.fail "placed entry carries no residency"
   | None -> Alcotest.fail "table not in snapshot");
  (match Flexbpf.Interp.tier_capacity (Targets.Device.env dev) "huge" with
   | Some cap ->
     check "tier cap mirrors residency" true (cap > 0 && cap < 150_000)
   | None -> Alcotest.fail "device tier capacity not set");
  (* the datapath still serves the whole logical rule set: a lookup
     faults into the bounded device tier rather than missing *)
  Flexbpf.Interp.install_rule (Targets.Device.env dev) "huge"
    (rule ~matches:[ exact_i 2 ] ~action:("a", []) ());
  ignore (Targets.Device.exec dev ~now_us:0L (mk_packet ~dst:2L ()));
  (match Targets.Device.tier_stats dev with
   | [ s ] ->
     check "lookup faulted and promoted" true
       (s.Flexbpf.Compile.ts_misses >= 1
        && s.Flexbpf.Compile.ts_promotions >= 1)
   | _ -> Alcotest.fail "expected one tiered table");
  (* uninstall releases both the clamped charge and the tier cap *)
  check "uninstall works" true (Targets.Device.uninstall dev "huge");
  Alcotest.(check (float 1e-9)) "all freed" 0. (Targets.Device.utilization dev);
  check "tier cap cleared" true
    (Flexbpf.Interp.tier_capacity (Targets.Device.env dev) "huge" = None)

(* -- Defragmentation -------------------------------------------------------- *)

let test_defragment_compacts () =
  let dev = Targets.Device.create Targets.Arch.rmt in
  let names = List.init 6 (fun i -> Printf.sprintf "t%d" i) in
  let ctx = prog_of (List.map big_exact_table names) in
  List.iteri
    (fun i n -> ignore (Targets.Device.install dev ~ctx ~order:i (big_exact_table n)))
    names;
  (* remove every second element, leaving holes *)
  List.iteri (fun i n -> if i mod 2 = 0 then ignore (Targets.Device.uninstall dev n)) names;
  let moved = Targets.Device.defragment dev in
  check "defragment moved survivors" true (moved > 0);
  (* after compaction a new big table must fit in an early stage *)
  (match Targets.Device.install dev ~ctx:(prog_of [ big_exact_table "fresh" ]) ~order:100
           (big_exact_table "fresh")
   with
   | Ok _ -> ()
   | Error r -> Alcotest.failf "post-defrag install: %s" (Targets.Resource.reject_to_string r))

(* -- Parser reconfiguration --------------------------------------------------- *)

let test_parser_runtime_ops () =
  let dev = Targets.Device.create Targets.Arch.drmt in
  (* restricted parser: only eth/ipv4 accepted, so gre is parseable only
     after the runtime parser change *)
  let ctx =
    program "ctx"
      ~parser:[ parser_rule "parse_ipv4" [ "ethernet"; "ipv4" ] ]
      [ small_table "t" ]
  in
  ignore (Targets.Device.install dev ~ctx ~order:0 (small_table "t"));
  (* vlan packets parse via standard rules; add a new protocol *)
  let gre_pkt =
    Netsim.Packet.create
      [ Netsim.Packet.ethernet ~src:1L ~dst:2L ();
        { Netsim.Packet.hname = "gre"; fields = [ ("proto", ref 1L) ] } ]
  in
  let r1 = Targets.Device.exec dev ~now_us:0L gre_pkt in
  check "unknown protocol rejected" false r1.Flexbpf.Interp.parse_ok;
  (match
     Targets.Device.add_parser_rule dev (parser_rule "parse_gre" [ "ethernet"; "gre" ])
   with
   | Ok () -> ()
   | Error r -> Alcotest.failf "add rule: %s" (Targets.Resource.reject_to_string r));
  (* gre header must be declared for the rule to make sense; the std
     headers don't include it, but parser acceptance is name-based *)
  let r2 = Targets.Device.exec dev ~now_us:0L gre_pkt in
  check "new protocol accepted after runtime add" true r2.Flexbpf.Interp.parse_ok;
  check "remove works" true (Targets.Device.remove_parser_rule dev "parse_gre");
  let r3 = Targets.Device.exec dev ~now_us:0L gre_pkt in
  check "rejected again after removal" false r3.Flexbpf.Interp.parse_ok

let test_parser_capacity () =
  let dev = Targets.Device.create Targets.Arch.drmt in
  let cap = Targets.Arch.drmt.Targets.Arch.parser_capacity in
  let results =
    List.init (cap + 5) (fun i ->
        Targets.Device.add_parser_rule dev
          (parser_rule (Printf.sprintf "p%d" i) [ "ethernet" ]))
  in
  let ok = List.length (List.filter Result.is_ok results) in
  check_int "bounded by parser capacity" cap ok

(* -- Two-version consistency ---------------------------------------------------- *)

let test_freeze_thaw_visibility () =
  let dev = Targets.Device.create Targets.Arch.drmt in
  let drop_all = block "drop_all" [ drop ] in
  let ctx = prog_of [ small_table "t" ] in
  ignore (Targets.Device.install dev ~ctx ~order:0 (small_table "t"));
  let v_old = Targets.Device.version dev in
  Targets.Device.freeze dev;
  (* mutate under freeze: install a dropper *)
  ignore (Targets.Device.install dev ~ctx:(prog_of [ drop_all ]) ~order:1 drop_all);
  let r = Targets.Device.exec dev ~now_us:0L (mk_packet ()) in
  check "old program still visible" false r.Flexbpf.Interp.verdict.Flexbpf.Interp.dropped;
  ignore v_old;
  Targets.Device.thaw dev;
  let r2 = Targets.Device.exec dev ~now_us:0L (mk_packet ()) in
  check "new program after thaw" true r2.Flexbpf.Interp.verdict.Flexbpf.Interp.dropped

let test_freeze_defers_cleanup () =
  (* removing an element under freeze must keep its maps alive so the
     old program can still execute *)
  let dev = Targets.Device.create Targets.Arch.drmt in
  let m = map_decl ~key_arity:1 ~size:16 "cnt" in
  let b = block "counter" [ map_incr "cnt" [ const 0 ] ] in
  let ctx = program "ctx" ~maps:[ m ] [ b ] in
  ignore (Targets.Device.install dev ~ctx ~order:0 b);
  Targets.Device.freeze dev;
  ignore (Targets.Device.uninstall dev "counter");
  (* old program still runs and can update its map *)
  let r = Targets.Device.exec dev ~now_us:0L (mk_packet ()) in
  check "no runtime error under freeze" true (r.Flexbpf.Interp.runtime_error = None);
  check "map still present during window" true
    (Targets.Device.map_state dev "cnt" <> None);
  Targets.Device.thaw dev;
  check "map released at thaw" true (Targets.Device.map_state dev "cnt" = None)

(* the program after thaw stops declaring the maps thaw released *)
let test_thaw_drops_released_decls () =
  let dev = Targets.Device.create Targets.Arch.drmt in
  let m = map_decl ~key_arity:1 ~size:16 "cnt" in
  let b = block "counter" [ map_incr "cnt" [ const 0 ] ] in
  let ctx = program "ctx" ~maps:[ m ] [ b ] in
  ignore (Targets.Device.install dev ~ctx ~order:0 b);
  Targets.Device.freeze dev;
  ignore (Targets.Device.uninstall dev "counter");
  Targets.Device.thaw dev;
  check "map released at thaw" true (Targets.Device.map_state dev "cnt" = None);
  Alcotest.(check (list string))
    "program declares no released map" []
    (List.map
       (fun (d : Flexbpf.Ast.map_decl) -> d.map_name)
       (Targets.Device.program dev).Flexbpf.Ast.maps)

let test_rollback_restores_snapshot () =
  (* every structural op inside a window — install, uninstall,
     defragment, parser rule — is undone by rollback: the device's
     snapshot is the one it held before the freeze *)
  let dev = Targets.Device.create Targets.Arch.rmt in
  let m = map_decl ~key_arity:1 ~size:16 "cnt" in
  let counter = block "counter" [ map_incr "cnt" [ const 0 ] ] in
  let names = [ "t0"; "t1"; "t2" ] in
  let ctx =
    program "ctx" ~maps:[ m ] (List.map big_exact_table names @ [ counter ])
  in
  List.iteri
    (fun i n ->
      ignore (Targets.Device.install dev ~ctx ~order:i (big_exact_table n)))
    names;
  ignore (Targets.Device.install dev ~ctx ~order:3 counter);
  check "hole" true (Targets.Device.uninstall dev "t0");
  let before = Targets.Device.snapshot dev in
  Targets.Device.freeze dev;
  let fresh = small_table "fresh" in
  (match Targets.Device.install dev ~ctx:(prog_of [ fresh ]) ~order:4 fresh with
   | Ok _ -> ()
   | Error r ->
     Alcotest.failf "install: %s" (Targets.Resource.reject_to_string r));
  check "uninstall in window" true (Targets.Device.uninstall dev "counter");
  check "defragment moved" true (Targets.Device.defragment dev > 0);
  (match
     Targets.Device.add_parser_rule dev
       (parser_rule "parse_gre" [ "ethernet"; "gre" ])
   with
   | Ok () -> ()
   | Error r ->
     Alcotest.failf "add rule: %s" (Targets.Resource.reject_to_string r));
  check "window changed the snapshot" true
    (Targets.Resource.diff before (Targets.Device.snapshot dev) <> []);
  Targets.Device.rollback dev;
  Alcotest.(check (list string)) "snapshot restored" []
    (Targets.Resource.diff before (Targets.Device.snapshot dev))

(* A window's fixed cost: [freeze] logs what the window adds instead of
   listing the device's resident maps, tables and tier bounds, so an
   empty freeze + thaw allocates the same at 20 and at 200 resident
   counter tenants. Exact in native code only. *)
let freeze_thaw_words ~residents =
  let dev = Targets.Device.create Targets.Arch.host_ebpf in
  for i = 0 to residents - 1 do
    let m = Printf.sprintf "cnt%d" i in
    let b = block (Printf.sprintf "counter%d" i) [ map_incr m [ const 0 ] ] in
    let t = small_table (Printf.sprintf "t%d" i) in
    let ctx = program "ctx" ~maps:[ map_decl ~key_arity:1 ~size:16 m ] [ b; t ] in
    List.iteri
      (fun j el ->
        match Targets.Device.install dev ~ctx ~order:((2 * i) + j) el with
        | Ok _ -> ()
        | Error r ->
          Alcotest.failf "install: %s" (Targets.Resource.reject_to_string r))
      [ b; t ];
    Flexbpf.Interp.set_tier_capacity (Targets.Device.env dev)
      (Printf.sprintf "t%d" i) 4
  done;
  let window () =
    Targets.Device.freeze dev;
    Targets.Device.thaw dev
  in
  window ();
  let w0 = Gc.minor_words () in
  window ();
  Gc.minor_words () -. w0

let test_freeze_cost_flat () =
  let w20 = freeze_thaw_words ~residents:20 in
  let w200 = freeze_thaw_words ~residents:200 in
  if Sys.backend_type = Sys.Native then
    check
      (Printf.sprintf "freeze+thaw words %.0f at 200 residents = %.0f at 20"
         w200 w20)
      true (w200 = w20)

(* A rollback undoes exactly what the window added: the new map, the
   new table and its tier bound go, a changed bound returns to its
   value at freeze, and what was resident stays. *)
let test_rollback_undoes_window_log () =
  let dev = Targets.Device.create Targets.Arch.drmt in
  let env = Targets.Device.env dev in
  let m = map_decl ~key_arity:1 ~size:16 "cnt" in
  let b = block "counter" [ map_incr "cnt" [ const 0 ] ] in
  let ctx = program "ctx" ~maps:[ m ] [ b; small_table "t" ] in
  ignore (Targets.Device.install dev ~ctx ~order:0 b);
  ignore (Targets.Device.install dev ~ctx ~order:1 (small_table "t"));
  Flexbpf.Interp.set_tier_capacity env "t" 4;
  Targets.Device.freeze dev;
  let m2 = map_decl ~key_arity:1 ~size:16 "cnt2" in
  let b2 = block "counter2" [ map_incr "cnt2" [ const 0 ] ] in
  let ctx2 = program "ctx2" ~maps:[ m2 ] [ b2; small_table "u" ] in
  ignore (Targets.Device.install dev ~ctx:ctx2 ~order:2 b2);
  ignore (Targets.Device.install dev ~ctx:ctx2 ~order:3 (small_table "u"));
  (* re-installing "t" unbounded clears its bound inside the window *)
  check "uninstall t" true (Targets.Device.uninstall dev "t");
  ignore (Targets.Device.install dev ~ctx ~order:4 (small_table "t"));
  check "window cleared t's bound" true
    (Flexbpf.Interp.tier_capacity env "t" = None);
  Targets.Device.rollback dev;
  check "added map removed" true (Targets.Device.map_state dev "cnt2" = None);
  check "resident map kept" true (Targets.Device.map_state dev "cnt" <> None);
  check "added table unregistered" false (Hashtbl.mem env.Flexbpf.Interp.tables "u");
  check "resident table kept" true (Hashtbl.mem env.Flexbpf.Interp.tables "t");
  check "t's bound restored" true (Flexbpf.Interp.tier_capacity env "t" = Some 4)

let test_epoch_stamping () =
  let dev = Targets.Device.create Targets.Arch.drmt in
  let ctx = prog_of [ small_table "t" ] in
  ignore (Targets.Device.install dev ~ctx ~order:0 (small_table "t"));
  let p1 = mk_packet () in
  ignore (Targets.Device.exec dev ~now_us:0L p1);
  let v1 = p1.Netsim.Packet.epoch in
  ignore (Targets.Device.install dev ~ctx:(prog_of [ small_table "t2" ]) ~order:1
            (small_table "t2"));
  let p2 = mk_packet () in
  ignore (Targets.Device.exec dev ~now_us:0L p2);
  check "version advanced after reconfig" true (p2.Netsim.Packet.epoch > v1)

(* -- State transfer --------------------------------------------------------------- *)

let test_load_snapshot_converts_encoding () =
  let src = Targets.Device.create Targets.Arch.host_ebpf in (* flow_state *)
  let dst = Targets.Device.create Targets.Arch.drmt in (* stateful_table *)
  let m = map_decl ~key_arity:1 ~size:128 "st" in
  let b = block "b" [ map_incr "st" [ field "ipv4" "src" ] ] in
  let ctx = program "ctx" ~maps:[ m ] [ b ] in
  ignore (Targets.Device.install src ~ctx ~order:0 b);
  ignore (Targets.Device.install dst ~ctx ~order:0 b);
  for i = 1 to 10 do
    ignore (Targets.Device.exec src ~now_us:0L (mk_packet ~src:(Int64.of_int i) ()))
  done;
  let snap =
    Flexbpf.State.snapshot (Option.get (Targets.Device.map_state src "st"))
  in
  check "snapshot loads across encodings" true
    (Targets.Device.load_map_snapshot dst "st" snap);
  let dst_map = Option.get (Targets.Device.map_state dst "st") in
  check "encodings differ" true
    (Flexbpf.State.encoding (Option.get (Targets.Device.map_state src "st"))
     <> Flexbpf.State.encoding dst_map);
  check "entries preserved" true (Flexbpf.State.snapshot dst_map = snap)

(* -- Energy ------------------------------------------------------------------------ *)

let test_power_model () =
  let dev = Targets.Device.create Targets.Arch.drmt in
  let on = Targets.Device.energy_joules dev ~seconds:10. ~pps:1e6 in
  Targets.Device.set_power dev false;
  let off = Targets.Device.energy_joules dev ~seconds:10. ~pps:0. in
  check "powered-off draws almost nothing" true (off < on /. 10.)

let () =
  Alcotest.run "targets"
    [ ( "resource",
        [ Alcotest.test_case "arithmetic" `Quick test_resource_arith;
          Alcotest.test_case "utilization" `Quick test_resource_utilization ] );
      ( "arch",
        [ Alcotest.test_case "profiles sane" `Quick test_profiles_sane;
          Alcotest.test_case "latency ordering" `Quick test_switches_faster_than_hosts;
          Alcotest.test_case "sub-second reconfig" `Quick
            test_runtime_reconfig_under_a_second ] );
      ( "admission",
        [ Alcotest.test_case "install+exec" `Quick test_install_and_exec;
          Alcotest.test_case "double install" `Quick test_double_install_rejected;
          Alcotest.test_case "uninstall frees" `Quick test_uninstall_frees_resources;
          Alcotest.test_case "rmt fragmentation" `Quick test_rmt_stage_fragmentation;
          Alcotest.test_case "rmt order constraint" `Quick test_rmt_order_constraint;
          Alcotest.test_case "drmt pool" `Quick test_drmt_pool_fungible;
          Alcotest.test_case "tiles typed" `Quick test_tiles_typed_capacity;
          Alcotest.test_case "elastic PEM" `Quick test_elastic_pem_for_blocks;
          Alcotest.test_case "elastic PEM occupancy" `Quick
            test_elastic_pem_occupancy;
          Alcotest.test_case "block cycle limits" `Quick test_block_cycle_limits;
          Alcotest.test_case "map charged once" `Quick test_map_charged_once;
          Alcotest.test_case "oversubscribed table admitted" `Quick
            test_oversubscribed_table_admitted ] );
      ( "reconfiguration",
        [ Alcotest.test_case "defragment" `Quick test_defragment_compacts;
          Alcotest.test_case "parser runtime ops" `Quick test_parser_runtime_ops;
          Alcotest.test_case "parser capacity" `Quick test_parser_capacity;
          Alcotest.test_case "freeze/thaw" `Quick test_freeze_thaw_visibility;
          Alcotest.test_case "deferred cleanup" `Quick test_freeze_defers_cleanup;
          Alcotest.test_case "thaw drops released map declarations" `Quick
            test_thaw_drops_released_decls;
          Alcotest.test_case "rollback restores snapshot" `Quick
            test_rollback_restores_snapshot;
          Alcotest.test_case "freeze cost flat in residents" `Quick
            test_freeze_cost_flat;
          Alcotest.test_case "rollback undoes the window log" `Quick
            test_rollback_undoes_window_log;
          Alcotest.test_case "epoch stamping" `Quick test_epoch_stamping ] );
      ( "state+energy",
        [ Alcotest.test_case "snapshot conversion" `Quick
            test_load_snapshot_converts_encoding;
          Alcotest.test_case "power model" `Quick test_power_model ] ) ]
