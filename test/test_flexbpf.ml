(* Tests for the FlexBPF language: typechecking, analysis, state
   encodings, interpretation, patching, and composition. *)

open Flexbpf
open Flexbpf.Builder

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let mk_packet ?(src = 1L) ?(dst = 2L) ?(sport = 100L) ?(dport = 200L) () =
  Netsim.Packet.create
    [ Netsim.Packet.ethernet ~src ~dst ();
      Netsim.Packet.ipv4 ~src ~dst ();
      Netsim.Packet.tcp ~sport ~dport () ]

let counting_program =
  program "counter" ~maps:[ map_decl ~key_arity:1 ~size:64 "hits" ]
    [ block "count" [ map_incr "hits" [ field "ipv4" "src" ] ] ]

(* -- Typecheck ----------------------------------------------------------- *)

let test_typecheck_ok () =
  check "well-formed program passes" true
    (Typecheck.check_program counting_program = Ok ())

let test_typecheck_unknown_field () =
  let bad =
    program "bad" [ block "b" [ set_meta "x" (field "ipv4" "nonexistent") ] ]
  in
  match Typecheck.check_program bad with
  | Ok () -> Alcotest.fail "should reject unknown field"
  | Error es ->
    check "mentions the field" true
      (List.exists (fun e -> contains e.Typecheck.what "ipv4.nonexistent") es)

let test_typecheck_unknown_map () =
  let bad = program "bad" [ block "b" [ map_incr "ghost" [ const 1 ] ] ] in
  check "unknown map rejected" true (Typecheck.check_program bad <> Ok ())

let test_typecheck_map_arity () =
  let bad =
    program "bad"
      ~maps:[ map_decl ~key_arity:2 ~size:8 "m" ]
      [ block "b" [ map_put "m" [ const 1 ] (const 0) ] ]
  in
  check "key arity mismatch rejected" true (Typecheck.check_program bad <> Ok ())

let test_typecheck_loop_bounds () =
  let too_big = program "bad" [ block "b" [ loop 1000 [ Ast.Nop ] ] ] in
  check "oversized loop rejected" true (Typecheck.check_program too_big <> Ok ());
  let neg = program "bad" [ block "b" [ loop 0 [ Ast.Nop ] ] ] in
  check "zero loop rejected" true (Typecheck.check_program neg <> Ok ())

let test_typecheck_duplicates () =
  let dup = program "dup" [ block "x" [ Ast.Nop ]; block "x" [ Ast.Drop ] ] in
  check "duplicate element names rejected" true
    (Typecheck.check_program dup <> Ok ())

let test_typecheck_unbound_param () =
  let bad =
    program "bad"
      [ table "t"
          ~keys:[ exact (field "ipv4" "dst") ]
          ~actions:[ action "a" [ forward (param "port") ] ]
          ~default:("a", []) () ]
  in
  check "unbound param rejected" true (Typecheck.check_program bad <> Ok ())

let test_rule_validation () =
  let t =
    match
      table "t"
        ~keys:[ exact (field "ipv4" "dst"); lpm (field "ipv4" "src") ]
        ~actions:[ action "fwd" ~params:[ "p" ] [ forward (param "p") ] ]
        ~default:("fwd", [ 0L ]) ()
    with
    | Ast.Table t -> t
    | _ -> assert false
  in
  let ok = rule ~matches:[ exact_i 5; lpm_i 0 0 ] ~action:("fwd", [ 1 ]) () in
  check "valid rule accepted" true (Typecheck.check_rule t ok = Ok ());
  let wrong_arity = rule ~matches:[ exact_i 5 ] ~action:("fwd", [ 1 ]) () in
  check "wrong pattern count rejected" true
    (Typecheck.check_rule t wrong_arity <> Ok ());
  let wrong_kind =
    rule ~matches:[ lpm_i 5 8; lpm_i 0 0 ] ~action:("fwd", [ 1 ]) ()
  in
  check "pattern kind mismatch rejected" true
    (Typecheck.check_rule t wrong_kind <> Ok ());
  let bad_action =
    rule ~matches:[ exact_i 5; lpm_i 0 0 ] ~action:("nope", []) ()
  in
  check "unknown action rejected" true
    (Typecheck.check_rule t bad_action <> Ok ());
  let any_ok = rule ~matches:[ any; any ] ~action:("fwd", [ 2 ]) () in
  check "wildcards fit any key kind" true (Typecheck.check_rule t any_ok = Ok ())

(* -- Analysis -------------------------------------------------------------- *)

let test_bounded_cycles () =
  let p = program "loops" [ block "b" [ loop 10 [ set_meta "x" (const 1) ] ] ] in
  check_int "loop cycles multiply" 11 (Analysis.max_cycles p)

let test_certify_budget () =
  let heavy =
    program "heavy"
      [ block "b" [ loop 64 [ loop 64 [ set_meta "x" (const 1) ] ] ] ]
  in
  (match Analysis.certify ~budget:100 heavy with
   | Error (Analysis.Cycles_exceed (actual, budget)) ->
     check "budget honored" true (actual > budget)
   | _ -> Alcotest.fail "expected cycle rejection");
  check "default budget admits small programs" true
    (Result.is_ok (Analysis.certify counting_program))

let test_certify_rejects_ill_typed () =
  let bad = program "bad" [ block "b" [ map_incr "ghost" [ const 1 ] ] ] in
  match Analysis.certify bad with
  | Error (Analysis.Ill_typed _) -> ()
  | _ -> Alcotest.fail "expected ill-typed rejection"

let test_footprint_tcam_vs_sram () =
  let exact_t =
    program "e"
      [ table "t"
          ~keys:[ exact (field "ipv4" "dst") ]
          ~actions:[ action "a" [ Ast.Nop ] ]
          ~default:("a", []) ~size:100 () ]
  in
  let lpm_t =
    program "l"
      [ table "t"
          ~keys:[ lpm (field "ipv4" "dst") ]
          ~actions:[ action "a" [ Ast.Nop ] ]
          ~default:("a", []) ~size:100 () ]
  in
  let fe = Analysis.footprint exact_t and fl = Analysis.footprint lpm_t in
  check "exact uses sram" true
    (fe.Analysis.sram_bytes > 0 && fe.Analysis.tcam_bytes = 0);
  check "lpm uses tcam" true
    (fl.Analysis.tcam_bytes > 0 && fl.Analysis.sram_bytes = 0)

let test_footprint_counts_maps () =
  let f = Analysis.footprint counting_program in
  check "maps add sram" true (f.Analysis.sram_bytes >= 64 * 16)

(* -- State encodings -------------------------------------------------------- *)

let all_encodings = [ State.Registers; State.Flow_state; State.Stateful_table ]

let test_state_basic_ops () =
  List.iter
    (fun enc ->
      let s = State.create ~name:"m" ~size:128 enc in
      State.put s [| 1L |] 10L;
      check_i64 (State.concrete_to_string enc ^ " get") 10L (State.get s [| 1L |]);
      State.incr s [| 1L |] 5L;
      check_i64 (State.concrete_to_string enc ^ " incr") 15L (State.get s [| 1L |]);
      State.del s [| 1L |];
      check_i64 (State.concrete_to_string enc ^ " del") 0L (State.get s [| 1L |]))
    all_encodings

let test_registers_alias () =
  let s = State.create ~name:"m" ~size:1 State.Registers in
  State.put s [| 1L |] 10L;
  State.put s [| 2L |] 20L;
  check_i64 "collision overwrote" 20L (State.get s [| 2L |]);
  check_i64 "old key reads aliased slot" 20L (State.get s [| 1L |])

let test_flow_state_overflow () =
  let s = State.create ~name:"m" ~size:2 State.Flow_state in
  State.put s [| 1L |] 1L;
  State.put s [| 2L |] 2L;
  State.put s [| 3L |] 3L;
  check_i64 "overflow write dropped" 0L (State.get s [| 3L |]);
  check_int "overflow counted" 1 (State.overflows s);
  State.put s [| 1L |] 9L;
  check_i64 "existing key still writable" 9L (State.get s [| 1L |])

let test_stateful_table_evicts_lru () =
  let s = State.create ~name:"m" ~size:2 State.Stateful_table in
  State.put s [| 1L |] 1L;
  State.put s [| 2L |] 2L;
  ignore (State.get s [| 1L |]);
  State.put s [| 3L |] 3L;
  check_i64 "lru evicted" 0L (State.get s [| 2L |]);
  check_i64 "recent survives" 1L (State.get s [| 1L |]);
  check_i64 "new inserted" 3L (State.get s [| 3L |]);
  check_int "eviction counted" 1 (State.evictions s)

let test_snapshot_roundtrip_across_encodings () =
  let src = State.create ~name:"m" ~size:64 State.Stateful_table in
  for i = 1 to 20 do
    State.put src [| Int64.of_int i |] (Int64.of_int (i * 10))
  done;
  let snap = State.snapshot src in
  List.iter
    (fun enc ->
      let dst = State.restore ~name:"m" ~size:64 enc snap in
      if enc <> State.Registers then
        check
          ("restore to " ^ State.concrete_to_string enc)
          true
          (State.snapshot dst = snap))
    all_encodings

let test_merge_add () =
  let a = State.create ~name:"m" ~size:16 State.Stateful_table in
  let b = State.create ~name:"m" ~size:16 State.Stateful_table in
  State.put a [| 1L |] 5L;
  State.put b [| 1L |] 3L;
  State.put b [| 2L |] 7L;
  State.merge_add a (State.snapshot b);
  check_i64 "summed" 8L (State.get a [| 1L |]);
  check_i64 "new key folded in" 7L (State.get a [| 2L |])

(* -- Interpreter ------------------------------------------------------------- *)

let run_prog ?(pkt = mk_packet ()) prog =
  let env = Interp.create_env prog in
  (env, Interp.run env prog pkt, pkt)

let test_interp_counts () =
  let env = Interp.create_env counting_program in
  let pkt () = mk_packet ~src:7L () in
  ignore (Interp.run env counting_program (pkt ()));
  ignore (Interp.run env counting_program (pkt ()));
  check_i64 "two packets counted" 2L
    (State.get (Interp.env_map env "hits") [| 7L |])

let test_interp_parser_reject () =
  let prog =
    { counting_program with
      parser = [ parser_rule "only_vlan" [ "ethernet"; "vlan" ] ] }
  in
  let _, result, _ = run_prog prog in
  check "unparseable dropped" true result.Interp.verdict.Interp.dropped;
  check "parse flagged" false result.Interp.parse_ok

let test_interp_table_match () =
  let prog =
    program "fwd"
      [ table "t"
          ~keys:[ exact (field "ipv4" "dst") ]
          ~actions:
            [ action "out" ~params:[ "port" ] [ forward (param "port") ];
              action "toss" [ drop ] ]
          ~default:("toss", []) () ]
  in
  let env = Interp.create_env prog in
  Interp.install_rule env "t"
    (rule ~matches:[ exact_i 2 ] ~action:("out", [ 9 ]) ());
  let r1 = Interp.run env prog (mk_packet ~dst:2L ()) in
  Alcotest.(check (option int)) "matched -> forwarded" (Some 9)
    r1.Interp.verdict.Interp.egress;
  let r2 = Interp.run env prog (mk_packet ~dst:3L ()) in
  check "miss -> default drop" true r2.Interp.verdict.Interp.dropped

let test_interp_priority_and_lpm () =
  let prog =
    program "lpm"
      [ table "t"
          ~keys:[ lpm (field "ipv4" "dst") ]
          ~actions:[ action "out" ~params:[ "port" ] [ forward (param "port") ] ]
          ~default:("nop", []) () ]
  in
  let env = Interp.create_env prog in
  Interp.install_rule env "t"
    (rule ~matches:[ lpm_i 0 0 ] ~action:("out", [ 1 ]) ());
  Interp.install_rule env "t"
    (rule ~matches:[ lpm_i 8 32 ] ~action:("out", [ 2 ]) ());
  let r = Interp.run env prog (mk_packet ~dst:8L ()) in
  Alcotest.(check (option int)) "longest prefix wins" (Some 2)
    r.Interp.verdict.Interp.egress;
  let r2 = Interp.run env prog (mk_packet ~dst:9L ()) in
  Alcotest.(check (option int)) "default route" (Some 1)
    r2.Interp.verdict.Interp.egress

let test_interp_ternary_range () =
  let prog =
    program "tr"
      [ table "t"
          ~keys:[ ternary (field "tcp" "sport"); range (field "tcp" "dport") ]
          ~actions:[ action "hit" [ set_meta "hit" (const 1) ] ]
          ~default:("nop", []) () ]
  in
  let env = Interp.create_env prog in
  Interp.install_rule env "t"
    (rule ~matches:[ ternary_i 0x40 0xF0; range_i 100 300 ] ~action:("hit", []) ());
  let pkt = mk_packet ~sport:0x4FL ~dport:200L () in
  ignore (Interp.run env prog pkt);
  check_i64 "ternary+range matched" 1L (Netsim.Packet.meta_default pkt "hit" 0L);
  let pkt2 = mk_packet ~sport:0x4FL ~dport:301L () in
  ignore (Interp.run env prog pkt2);
  check_i64 "range bound respected" 0L (Netsim.Packet.meta_default pkt2 "hit" 0L)

let test_interp_div_by_zero_total () =
  let prog =
    program "div"
      [ block "b"
          [ set_meta "q" (field "tcp" "sport" /: meta "zero");
            set_meta "m" (field "tcp" "sport" %: meta "zero") ] ]
  in
  let _, result, pkt = run_prog prog in
  check "no runtime error" true (result.Interp.runtime_error = None);
  check_i64 "div by zero yields 0" 0L (Netsim.Packet.meta_default pkt "q" 99L);
  check_i64 "mod by zero yields 0" 0L (Netsim.Packet.meta_default pkt "m" 99L)

let test_interp_short_circuit () =
  let prog =
    program "guard"
      [ block "b"
          [ when_
              ((meta "vlan_vid" >: const 0) &&: (field "vlan" "vid" =: const 5))
              [ set_meta "hit" (const 1) ] ] ]
  in
  let pkt = mk_packet () in
  let _, result, _ = run_prog ~pkt prog in
  check "short-circuit avoids absent header" true
    (result.Interp.runtime_error = None)

let test_interp_missing_field_drops () =
  let prog = program "bad" [ block "b" [ set_meta "x" (field "vlan" "vid") ] ] in
  let _, result, _ = run_prog prog in
  check "runtime error recorded" true (result.Interp.runtime_error <> None);
  check "packet dropped on error" true result.Interp.verdict.Interp.dropped

let test_interp_loop_index () =
  let prog =
    program "loop"
      ~maps:[ map_decl ~key_arity:1 ~size:16 "seen" ]
      [ block "b" [ loop 4 [ map_put "seen" [ meta "_loop_i" ] (const 1) ] ] ]
  in
  let env = Interp.create_env prog in
  ignore (Interp.run env prog (mk_packet ()));
  let m = Interp.env_map env "seen" in
  check "all indices visited" true
    (List.for_all (fun i -> State.get m [| Int64.of_int i |] = 1L) [ 0; 1; 2; 3 ])

let test_interp_push_pop_header () =
  let prog = program "vlan_push" [ block "b" [ Ast.Push_header "vlan" ] ] in
  let pkt = mk_packet () in
  let _, _, _ = run_prog ~pkt prog in
  check "vlan pushed" true (Netsim.Packet.has_header pkt "vlan")

let test_interp_punt () =
  let prog = program "p" [ block "b" [ punt "alert" ] ] in
  let env = Interp.create_env prog in
  let punted = ref [] in
  env.Interp.punt <- (fun d _ -> punted := d :: !punted);
  let r = Interp.run env prog (mk_packet ()) in
  Alcotest.(check (list string)) "punt recorded" [ "alert" ] !punted;
  Alcotest.(check (list string)) "verdict carries punts" [ "alert" ]
    r.Interp.verdict.Interp.punts;
  check "punt does not drop" false r.Interp.verdict.Interp.dropped

let test_interp_drpc_call () =
  let prog = program "c" [ block "b" [ call "echo" [ const 41 ] ] ] in
  let env = Interp.create_env prog in
  env.Interp.drpc <-
    (fun svc args ->
      match svc, args with "echo", [ x ] -> Int64.add x 1L | _ -> 0L);
  let pkt = mk_packet () in
  ignore (Interp.run env prog pkt);
  check_i64 "drpc result in metadata" 42L
    (Netsim.Packet.meta_default pkt "drpc_echo" 0L)

let test_interp_forward_then_drop () =
  let prog = program "fd" [ block "b" [ forward_port 3; drop ] ] in
  let _, r, _ = run_prog prog in
  check "later drop wins" true r.Interp.verdict.Interp.dropped

(* -- Patch ------------------------------------------------------------------ *)

let base_prog = Apps.L2l3.program ()

let test_glob () =
  check "star" true (Patch.glob_matches "fw*" "fw_conn");
  check "question" true (Patch.glob_matches "s?" "s1");
  check "mid star" true (Patch.glob_matches "tenant/*" "tenant/nat");
  check "no match" false (Patch.glob_matches "fw*" "acl");
  check "empty pattern" false (Patch.glob_matches "" "x");
  check "star matches empty" true (Patch.glob_matches "*" "")

let test_patch_add_remove () =
  let p =
    Patch.v "add-fw"
      [ Patch.Add_map (Apps.Firewall.conn_map ());
        Patch.Add_map Apps.Firewall.denied_map;
        Patch.Add_element
          (Patch.Before (Patch.Sel_name "ipv4_lpm"),
           Apps.Firewall.block ~boundary:100 ()) ]
  in
  match Patch.apply p base_prog with
  | Error _ -> Alcotest.fail "patch should apply"
  | Ok (prog', diff) ->
    check "element added" true (Ast.find_element prog' "stateful_fw" <> None);
    Alcotest.(check (list string)) "diff added" [ "stateful_fw" ] diff.Patch.added;
    let names = List.map Ast.element_name prog'.Ast.pipeline in
    let idx n = Option.get (List.find_index (( = ) n) names) in
    check "inserted before lpm" true (idx "stateful_fw" < idx "ipv4_lpm");
    (match
       Patch.apply
         (Patch.v "rm"
            [ Patch.Remove_element (Patch.Sel_name "stateful_fw");
              Patch.Remove_map "fw_conn"; Patch.Remove_map "fw_denied" ])
         prog'
     with
     | Error _ -> Alcotest.fail "removal should apply"
     | Ok (prog'', diff') ->
       check "element removed" true
         (Ast.find_element prog'' "stateful_fw" = None);
       Alcotest.(check (list string)) "diff removed" [ "stateful_fw" ]
         diff'.Patch.removed)

let test_patch_selector_no_match () =
  let p = Patch.v "bad" [ Patch.Remove_element (Patch.Sel_name "ghost*") ] in
  match Patch.apply p base_prog with
  | Error (`Patch (Patch.Selector_no_match _)) -> ()
  | _ -> Alcotest.fail "expected selector error"

let test_patch_duplicate_add () =
  let p = Patch.v "dup" [ Patch.Add_element (Patch.At_end, Apps.L2l3.ttl_guard) ] in
  match Patch.apply p base_prog with
  | Error (`Patch (Patch.Duplicate_name "ttl_guard")) -> ()
  | _ -> Alcotest.fail "expected duplicate error"

let test_patch_replace_keeps_position () =
  let stricter =
    Flexbpf.Builder.block "ttl_guard"
      [ when_ (field "ipv4" "ttl" <=: const 1) [ drop ] ]
  in
  let p =
    Patch.v "tighten"
      [ Patch.Replace_element (Patch.Sel_name "ttl_guard", stricter) ]
  in
  match Patch.apply p base_prog with
  | Error _ -> Alcotest.fail "replace should apply"
  | Ok (prog', diff) ->
    Alcotest.(check (list string)) "diff modified" [ "ttl_guard" ]
      diff.Patch.modified;
    let old_names = List.map Ast.element_name base_prog.Ast.pipeline in
    let new_names = List.map Ast.element_name prog'.Ast.pipeline in
    Alcotest.(check (list string)) "pipeline order preserved" old_names new_names

let test_patch_rejects_ill_typed_result () =
  let p =
    Patch.v "bad"
      [ Patch.Add_element
          (Patch.At_end,
           Flexbpf.Builder.block "broken" [ map_incr "no_such_map" [ const 0 ] ])
      ]
  in
  match Patch.apply p base_prog with
  | Error (`Ill_typed _) -> ()
  | _ -> Alcotest.fail "expected ill-typed rejection"

let test_patch_parser_ops () =
  let r = parser_rule "parse_gre" [ "ethernet"; "gre" ] in
  let p =
    Patch.v "gre"
      [ Patch.Add_header (header "gre" [ ("proto", 16) ]);
        Patch.Add_parser_rule r ]
  in
  match Patch.apply p base_prog with
  | Error _ -> Alcotest.fail "parser patch should apply"
  | Ok (prog', diff) ->
    check "parser changed flag" true diff.Patch.parser_changed;
    check "rule present" true
      (List.exists (fun x -> x.Ast.pr_name = "parse_gre") prog'.Ast.parser);
    (match
       Patch.apply (Patch.v "rm" [ Patch.Remove_parser_rule "parse_gre" ]) prog'
     with
     | Ok (prog'', _) ->
       check "rule removed" false
         (List.exists (fun x -> x.Ast.pr_name = "parse_gre") prog''.Ast.parser)
     | Error _ -> Alcotest.fail "parser removal should apply")

let test_patch_set_default () =
  let p =
    Patch.v "default-deny"
      [ Patch.Set_default (Patch.Sel_name "acl", ("deny", [])) ]
  in
  match Patch.apply p base_prog with
  | Error _ -> Alcotest.fail "should apply"
  | Ok (prog', _) ->
    (match Ast.find_table prog' "acl" with
     | Some t ->
       Alcotest.(check string) "default changed" "deny" (fst t.Ast.default_action)
     | None -> Alcotest.fail "acl missing")

(* -- Compose ----------------------------------------------------------------- *)

let tenant_fw = Apps.Firewall.program ~owner:"acme" ~boundary:100 ()

let test_namespace () =
  let ns = Compose.namespace tenant_fw in
  check "elements namespaced" true
    (List.for_all
       (fun el -> String.starts_with ~prefix:"acme/" (Ast.element_name el))
       ns.Ast.pipeline);
  check "maps namespaced" true
    (List.for_all
       (fun (m : Ast.map_decl) -> String.starts_with ~prefix:"acme/" m.map_name)
       ns.Ast.maps);
  check "still well-typed after rename" true (Typecheck.check_program ns = Ok ())

let test_access_control () =
  let ns = Compose.namespace tenant_fw in
  Alcotest.(check int) "own maps fine" 0 (List.length (Compose.check_access ns));
  let evil =
    Compose.namespace
      (program ~owner:"evil" "snoop" ~maps:[]
         [ block "peek" [ set_meta "x" (map_get "port_counters" [ const 0 ]) ] ])
  in
  match Compose.check_access evil with
  | [ Compose.Touches_foreign_map ("evil/peek", "port_counters") ] -> ()
  | other -> Alcotest.failf "expected violation, got %d" (List.length other)

(* the last arrival patch of each owner, which [depart] inverts *)
let arrivals : (string, Patch.t) Hashtbl.t = Hashtbl.create 8

(* [Some] the program after applying [ext]'s arrival patch *)
let arrive ?(vlan = 9) base ext =
  match Compose.arrival ~vlan ~base ext with
  | Error _ -> None
  | Ok patch ->
    Hashtbl.replace arrivals ext.Ast.owner patch;
    Result.to_option (Result.map fst (Patch.apply patch base))

let depart owner prog =
  Result.to_option
    (Result.map fst
       (Patch.apply (Compose.departure (Hashtbl.find arrivals owner)) prog))

let arrive_exn ?vlan base ext =
  match arrive ?vlan base ext with
  | Some p -> p
  | None -> Alcotest.failf "arrival of %s failed" ext.Ast.owner

let test_compose_and_remove () =
  let merged = arrive_exn ~vlan:42 base_prog tenant_fw in
  check "tenant elements appended" true
    (Ast.find_element merged "acme/stateful_fw" <> None);
  check "base intact" true (Ast.find_element merged "ipv4_lpm" <> None);
  check "well typed" true (Typecheck.check_program merged = Ok ());
  match depart "acme" merged with
  | None -> Alcotest.fail "departure failed"
  | Some removed ->
    check "tenant gone" true (Ast.find_element removed "acme/stateful_fw" = None);
    Alcotest.(check int) "base pipeline restored"
      (List.length base_prog.Ast.pipeline)
      (List.length removed.Ast.pipeline)

let test_compose_collision () =
  let merged = arrive_exn base_prog tenant_fw in
  match Compose.arrival ~vlan:9 ~base:merged tenant_fw with
  | Error _ -> Alcotest.fail "access check should pass"
  | Ok patch ->
    (match Patch.apply patch merged with
     | Error (`Patch (Patch.Duplicate_name _)) -> ()
     | _ -> Alcotest.fail "expected duplicate name on re-arrival")

let test_sharable_detection () =
  let mk owner = Apps.Firewall.program ~owner ~boundary:100 () in
  let m2 = arrive_exn (arrive_exn base_prog (mk "a")) (mk "b") in
  let pairs = Compose.sharable_elements m2 in
  check "identical tenant logic detected" true
    (List.exists
       (fun (x, y) ->
         (x = "a/stateful_fw" && y = "b/stateful_fw")
         || (x = "b/stateful_fw" && y = "a/stateful_fw"))
       pairs)

let test_vlan_guard () =
  let merged = arrive_exn ~vlan:7 base_prog tenant_fw in
  let env = Interp.create_env merged in
  let outside_tagged =
    Netsim.Packet.create
      [ Netsim.Packet.ethernet ~src:200L ~dst:1L ();
        Netsim.Packet.vlan ~vid:7L ();
        Netsim.Packet.ipv4 ~src:200L ~dst:1L ();
        Netsim.Packet.tcp ~sport:9L ~dport:10L () ]
  in
  Netsim.Packet.set_meta outside_tagged "vlan_vid" 7L;
  ignore (Interp.run env merged outside_tagged);
  let denied () = State.get (Interp.env_map env "acme/fw_denied") [| 0L |] in
  check_i64 "tenant fw denies unestablished inbound on its vlan" 1L (denied ());
  let outside_untagged = mk_packet ~src:200L ~dst:1L () in
  Netsim.Packet.set_meta outside_untagged "vlan_vid" 0L;
  ignore (Interp.run env merged outside_untagged);
  check_i64 "untagged traffic never hits tenant fw" 1L (denied ())

(* -- Compose properties ------------------------------------------------- *)

(* random small tenant extension for [owner]: 1-3 blocks, optionally a
   private map, and optionally a parser rule over a header stack — one
   the base declares but does not parse (the rule is installed) or one
   the infrastructure already parses (the rule is skipped) *)
let tenant_gen_of owner =
  QCheck.Gen.map3
    (fun nblocks with_map stack ->
      let maps = if with_map then [ map_decl ~key_arity:1 ~size:32 "m" ] else [] in
      let parser =
        match stack with
        | Some hs -> [ parser_rule "parse_own" hs ]
        | None -> []
      in
      let blk i =
        block
          (Printf.sprintf "b%d" i)
          (if with_map && i = 0 then [ map_incr "m" [ field "ipv4" "src" ] ]
           else [ set_meta "x" (const i) ])
      in
      program ~owner ~headers:[] ~parser ~maps (owner ^ "_ext")
        (List.init nblocks blk))
    (QCheck.Gen.int_range 1 3)
    QCheck.Gen.bool
    (QCheck.Gen.oneofl
       [ None; Some [ "ethernet"; "vlan" ]; Some [ "ethernet"; "ipv4" ] ])

let tenant_print (p : Ast.program) =
  Printf.sprintf "%s: %d blocks, %d maps, parser [%s]" p.Ast.owner
    (List.length p.Ast.pipeline) (List.length p.Ast.maps)
    (String.concat "; "
       (List.map (fun r -> String.concat "/" r.Ast.pr_headers) p.Ast.parser))

let prop_compose_remove_roundtrip =
  QCheck.Test.make ~name:"arrival then departure restores base"
    ~count:200
    (QCheck.make ~print:tenant_print
       QCheck.Gen.(oneofl [ "ta"; "tb"; "tc" ] >>= tenant_gen_of))
    (fun ext ->
      match Option.bind (arrive base_prog ext) (depart ext.Ast.owner) with
      | None -> false
      | Some removed ->
        removed.Ast.pipeline = base_prog.Ast.pipeline
        && removed.Ast.maps = base_prog.Ast.maps
        && removed.Ast.parser = base_prog.Ast.parser
        && removed.Ast.headers = base_prog.Ast.headers)

(* removing one tenant is invisible to another, whatever the arrival
   order: departure "ta" (base . a . b) = base . b *)
let prop_compose_removal_commutes =
  QCheck.Test.make ~name:"tenant removal commutes with later arrivals"
    ~count:200
    (QCheck.make
       ~print:(fun (a, b) -> tenant_print a ^ " / " ^ tenant_print b)
       (QCheck.Gen.pair (tenant_gen_of "ta") (tenant_gen_of "tb")))
    (fun (a, b) ->
      let removed_a =
        Option.bind
          (Option.bind (arrive base_prog a) (fun m1 -> arrive ~vlan:10 m1 b))
          (depart "ta")
      in
      match (removed_a, arrive ~vlan:10 base_prog b) with
      | Some removed_a, Some only_b ->
        removed_a.Ast.pipeline = only_b.Ast.pipeline
        && removed_a.Ast.maps = only_b.Ast.maps
        && removed_a.Ast.parser = only_b.Ast.parser
      | _ -> false)

let test_compose_empty_identity () =
  let empty = program ~owner:"ta" ~headers:[] ~parser:[] "nothing" [] in
  (match Compose.arrival ~vlan:9 ~base:base_prog empty with
   | Ok patch -> check "no ops" true (patch.Patch.ops = [])
   | Error _ -> Alcotest.fail "empty extension rejected");
  let merged = arrive_exn base_prog empty in
  check "pipeline unchanged" true (merged.Ast.pipeline = base_prog.Ast.pipeline);
  check "maps unchanged" true (merged.Ast.maps = base_prog.Ast.maps);
  check "parser unchanged" true (merged.Ast.parser = base_prog.Ast.parser);
  check "headers unchanged" true (merged.Ast.headers = base_prog.Ast.headers)

let () =
  Alcotest.run "flexbpf"
    [ ( "typecheck",
        [ Alcotest.test_case "ok program" `Quick test_typecheck_ok;
          Alcotest.test_case "unknown field" `Quick test_typecheck_unknown_field;
          Alcotest.test_case "unknown map" `Quick test_typecheck_unknown_map;
          Alcotest.test_case "map arity" `Quick test_typecheck_map_arity;
          Alcotest.test_case "loop bounds" `Quick test_typecheck_loop_bounds;
          Alcotest.test_case "duplicates" `Quick test_typecheck_duplicates;
          Alcotest.test_case "unbound param" `Quick test_typecheck_unbound_param;
          Alcotest.test_case "rule validation" `Quick test_rule_validation ] );
      ( "analysis",
        [ Alcotest.test_case "bounded cycles" `Quick test_bounded_cycles;
          Alcotest.test_case "certify budget" `Quick test_certify_budget;
          Alcotest.test_case "certify types" `Quick test_certify_rejects_ill_typed;
          Alcotest.test_case "tcam vs sram" `Quick test_footprint_tcam_vs_sram;
          Alcotest.test_case "map footprint" `Quick test_footprint_counts_maps ] );
      ( "state",
        [ Alcotest.test_case "basic ops" `Quick test_state_basic_ops;
          Alcotest.test_case "register aliasing" `Quick test_registers_alias;
          Alcotest.test_case "flow-state overflow" `Quick test_flow_state_overflow;
          Alcotest.test_case "stateful LRU" `Quick test_stateful_table_evicts_lru;
          Alcotest.test_case "snapshot roundtrip" `Quick
            test_snapshot_roundtrip_across_encodings;
          Alcotest.test_case "merge add" `Quick test_merge_add ] );
      ( "interp",
        [ Alcotest.test_case "counting" `Quick test_interp_counts;
          Alcotest.test_case "parser reject" `Quick test_interp_parser_reject;
          Alcotest.test_case "table match" `Quick test_interp_table_match;
          Alcotest.test_case "lpm priority" `Quick test_interp_priority_and_lpm;
          Alcotest.test_case "ternary+range" `Quick test_interp_ternary_range;
          Alcotest.test_case "total division" `Quick test_interp_div_by_zero_total;
          Alcotest.test_case "short circuit" `Quick test_interp_short_circuit;
          Alcotest.test_case "missing field" `Quick test_interp_missing_field_drops;
          Alcotest.test_case "loop index" `Quick test_interp_loop_index;
          Alcotest.test_case "push/pop header" `Quick test_interp_push_pop_header;
          Alcotest.test_case "punt" `Quick test_interp_punt;
          Alcotest.test_case "drpc call" `Quick test_interp_drpc_call;
          Alcotest.test_case "forward then drop" `Quick
            test_interp_forward_then_drop ] );
      ( "patch",
        [ Alcotest.test_case "glob" `Quick test_glob;
          Alcotest.test_case "add/remove" `Quick test_patch_add_remove;
          Alcotest.test_case "selector no match" `Quick test_patch_selector_no_match;
          Alcotest.test_case "duplicate add" `Quick test_patch_duplicate_add;
          Alcotest.test_case "replace in place" `Quick
            test_patch_replace_keeps_position;
          Alcotest.test_case "ill-typed result" `Quick
            test_patch_rejects_ill_typed_result;
          Alcotest.test_case "parser rules" `Quick test_patch_parser_ops;
          Alcotest.test_case "set default" `Quick test_patch_set_default ] );
      ( "compose",
        [ Alcotest.test_case "namespace" `Quick test_namespace;
          Alcotest.test_case "access control" `Quick test_access_control;
          Alcotest.test_case "compose+remove" `Quick test_compose_and_remove;
          Alcotest.test_case "collision" `Quick test_compose_collision;
          Alcotest.test_case "sharable logic" `Quick test_sharable_detection;
          Alcotest.test_case "vlan guard" `Quick test_vlan_guard;
          Alcotest.test_case "empty identity" `Quick
            test_compose_empty_identity;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 0x5eed |])
            prop_compose_remove_roundtrip;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 0x5eed |])
            prop_compose_removal_commutes ] ) ]
