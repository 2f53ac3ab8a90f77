(* Tests for the FlexBPF verifier: diagnostics framework, the five pass
   families, the certification gate, and the shipped-program guarantee
   (every built-in app and example file verifies with zero errors). *)

open Flexbpf
open Flexbpf.Builder

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let codes ds = List.sort_uniq compare (List.map (fun d -> d.Diagnostics.code) ds)
let has_code c ds = List.exists (fun d -> d.Diagnostics.code = c) ds

(* The built-in application programs, mirroring the CLI's `apps` list. *)
let builtin_apps () =
  [ ("l2l3", Apps.L2l3.program ());
    ("firewall", Apps.Firewall.program ());
    ("cm_sketch", Apps.Cm_sketch.program ());
    ("heavy_hitter", Apps.Heavy_hitter.program ());
    ("syn_defense", Apps.Syn_defense.program ());
    ("scrubber", Apps.Scrubber.program ());
    ("load_balancer", Apps.Load_balancer.program ());
    ("nat", Apps.Nat.program ~public:900 ~subnet_lo:10 ~subnet_hi:20 ());
    ("telemetry", Apps.Telemetry.program ());
    ("rate_limiter", Apps.Rate_limiter.program ~rate_pps:1000 ~burst:16 ());
    ("congestion",
     Apps.Congestion.program
       ~blocks:
         [ Apps.Congestion.reno_block; Apps.Congestion.dctcp_block;
           Apps.Congestion.timely_block () ]
       ()) ]

(* Tests run from _build/default/test; the dune deps clause copies the
   example programs next door. *)
let examples_dir = "../examples/programs"

let example_files () =
  Sys.readdir examples_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".fbpf")
  |> List.sort compare

let load_example f =
  let path = Filename.concat examples_dir f in
  let src = In_channel.with_open_text path In_channel.input_all in
  match Syntax.parse_program_result src with
  | Ok p -> p
  | Error e -> Alcotest.failf "%s: parse error: %s" f e

(* -- Diagnostics framework ----------------------------------------------- *)

let test_severity_order () =
  check "error outranks warning" true
    Diagnostics.(compare_severity Error Warning > 0);
  check "warning outranks info" true
    Diagnostics.(compare_severity Warning Info > 0);
  check_int "round-trip severity strings" 3
    (List.length
       (List.filter_map Diagnostics.severity_of_string
          [ "info"; "warning"; "error" ]));
  check "unknown severity is None" true
    (Diagnostics.severity_of_string "fatal" = None)

let test_normalize () =
  let d sev code =
    Diagnostics.v ~code ~pass:"p" ~severity:sev ~path:"x" "m"
  in
  let ds =
    Diagnostics.normalize
      [ d Diagnostics.Info "FBV012"; d Diagnostics.Error "FBV001";
        d Diagnostics.Error "FBV001"; d Diagnostics.Warning "FBV010" ]
  in
  check_int "duplicates dropped" 3 (List.length ds);
  check "most severe first" true
    ((List.hd ds).Diagnostics.severity = Diagnostics.Error);
  check "tsv has 5 fields" true
    (List.length (String.split_on_char '\t' (Diagnostics.to_tsv (List.hd ds)))
     = 5)

(* -- Shipped programs verify clean --------------------------------------- *)

let test_apps_no_errors () =
  List.iter
    (fun (name, p) ->
      match Diagnostics.errors (Verifier.check p) with
      | [] -> ()
      | e :: _ ->
        Alcotest.failf "%s has error diagnostics: %s %s" name
          e.Diagnostics.code e.Diagnostics.message)
    (builtin_apps ())

let test_examples_no_errors () =
  let files = example_files () in
  check "found the example programs" true (List.length files >= 3);
  List.iter
    (fun f ->
      let ds = Verifier.check (load_example f) in
      if f = "bad_probe.fbpf" then
        check "bad_probe has errors" true (Diagnostics.errors ds <> [])
      else if f = "racy_counter.fbpf" then
        check "racy_counter rejected with the shard-race error" true
          (has_code "FBV052" (Diagnostics.errors ds))
      else
        match Diagnostics.errors ds with
        | [] -> ()
        | e :: _ ->
          Alcotest.failf "%s has error diagnostics: %s %s" f e.Diagnostics.code
            e.Diagnostics.message)
    files

(* Snapshot the expected sub-Error findings on known programs, so pass
   behavior changes are visible in review rather than silent. *)
let test_warning_snapshot () =
  let tsv p = List.map Diagnostics.to_tsv (Verifier.check p) in
  Alcotest.(check (list string))
    "heavy_hitter snapshot"
    [ "FBV050\tinfo\tshard-safety\tmap/cms\tmap cms is shard-commutative: \
       every datapath write is an increment, so per-shard replicas merge by \
       sum";
      "FBV053\tinfo\tshard-safety\tmap/cms\tshard-commutative map cms is \
       also read on the datapath: each shard observes its partial counts \
       until merge" ]
    (tsv (Apps.Heavy_hitter.program ()));
  Alcotest.(check (list string))
    "telemetry snapshot"
    [ "FBV002\twarning\tuninit-read\tpath_stamp/stmt.0\tmetadata hops read \
       before any assignment (defaults to 0)";
      "FBV014\tinfo\tdead-code\tmap/flow_bytes\tmap flow_bytes is write-only \
       in the data plane (visible only to the control plane)";
      "FBV050\tinfo\tshard-safety\tmap/flow_bytes\tmap flow_bytes is \
       shard-commutative: every datapath write is an increment, so per-shard \
       replicas merge by sum" ]
    (tsv (Apps.Telemetry.program ()));
  let fw = load_example "tenant_firewall.fbpf" in
  check "tenant firewall flags lossy encoding" true
    (has_code "FBV030" (Verifier.check fw));
  check "tenant firewall has no errors" true
    (Diagnostics.errors (Verifier.check fw) = [])

(* -- The crafted bad program --------------------------------------------- *)

let test_bad_probe () =
  let ds = Verifier.check (load_example "bad_probe.fbpf") in
  check "uninitialized header read is an error" true (has_code "FBV001" ds);
  check "statement after drop flagged" true (has_code "FBV010" ds);
  check "untouched map flagged" true (has_code "FBV013" ds);
  check "constant condition flagged" true (has_code "FBV020" ds);
  check "lossy mutated encoding flagged" true (has_code "FBV030" ds);
  check "at least 3 distinct diagnostics" true (List.length (codes ds) >= 3);
  check "max severity is error" true
    (Diagnostics.max_severity ds = Some Diagnostics.Error)

(* -- Individual passes ---------------------------------------------------- *)

let test_uninit_if_join () =
  (* a meta defined on only one branch of an If may have been defined:
     the read after the join is not flagged (may-analysis) *)
  let p =
    program "joins"
      [ block "b"
          [ when_ (field "ipv4" "proto" =: const 6) [ set_meta "x" (const 1) ];
            set_meta "y" (meta "x") ] ]
  in
  check "may-defined meta not flagged" true
    (not (has_code "FBV002" (Verifier.verify p)));
  (* but a meta defined on no path is flagged *)
  let q = program "noinit" [ block "b" [ set_meta "y" (meta "x") ] ] in
  check "never-defined meta flagged" true (has_code "FBV002" (Verifier.verify q))

let test_uninit_header_via_push () =
  let custom = header "tunnel" [ ("id", 32) ] in
  let p =
    program "push" ~headers:(custom :: standard_headers)
      [ block "b"
          [ Ast.Push_header "tunnel"; set_field "tunnel" "id" (const 9) ] ]
  in
  check "pushed header readable" true
    (not (has_code "FBV001" (Verifier.verify p)));
  let q =
    program "nopush" ~headers:(custom :: standard_headers)
      [ block "b" [ set_meta "x" (field "tunnel" "id") ] ]
  in
  check "unparsed header read is error" true
    (has_code "FBV001" (Verifier.verify q))

let test_dead_code_pass () =
  let p =
    program "dead"
      [ block "wall" [ drop ];
        block "after" [ set_meta "x" (const 1) ] ]
  in
  let ds = Verifier.verify p in
  check "element after drop-wall flagged" true (has_code "FBV011" ds)

(* Regression: a loop whose body drops behind a constant-true guard
   drops every packet, even though the guard's empty else-arm does not
   — the pass must fold the constant condition instead of requiring
   both arms to drop. *)
let test_dead_after_const_drop_loop () =
  let always =
    program "deadloop"
      [ block "b"
          [ loop 2 [ when_ (const 1 =: const 1) [ drop ] ];
            set_meta "x" (const 1) ] ]
  in
  check "stmt after always-dropping loop flagged" true
    (has_code "FBV010" (Verifier.verify always));
  (* the dual: a constant-false guard never drops, so nothing is dead *)
  let never =
    program "liveloop"
      [ block "b"
          [ loop 2 [ when_ (const 1 =: const 0) [ drop ] ];
            set_meta "x" (const 1) ] ]
  in
  check "const-false guard does not kill the tail" true
    (not (has_code "FBV010" (Verifier.verify never)))

let test_range_pass () =
  let p =
    program "ranges"
      ~maps:[ map_decl ~encoding:Ast.Enc_registers ~size:8 "regs" ]
      [ block "b"
          [ map_put "regs" [ const 100 ] (const 1);
            set_field "ipv4" "ttl" (const 5000) ] ]
  in
  let ds = Verifier.verify p in
  check "out-of-range registers key flagged" true (has_code "FBV023" ds);
  check "value too wide for field flagged" true (has_code "FBV024" ds);
  let nested =
    program "nested"
      [ block "b" [ loop 16 [ loop 16 [ set_meta "x" (const 0) ] ] ] ]
  in
  check "nested loop budget flagged" true
    (has_code "FBV025" (Verifier.verify nested));
  let div0 = program "div0" [ block "b" [ set_meta "x" (const 1 /: const 0) ] ] in
  check "division by zero flagged" true (has_code "FBV022" (Verifier.verify div0))

let test_isolation_pass () =
  let snoop =
    program ~owner:"eve" "snoop"
      ~maps:[ map_decl ~key_arity:1 ~size:4 "infra/secret" ]
      [ block "peek" [ set_meta "x" (map_get "infra/secret" [ const 0 ]) ] ]
  in
  let ds = Verifier.verify snoop in
  check "foreign map touch flagged" true (has_code "FBV040" ds);
  check "unguarded tenant element flagged" true (has_code "FBV041" ds);
  check "infra programs exempt" true
    (not
       (List.exists
          (fun d -> d.Diagnostics.pass = "tenant-isolation")
          (Verifier.verify (Apps.L2l3.program ()))))

let test_shard_safety_pass () =
  let racy = load_example "racy_counter.fbpf" in
  let ds = Verifier.check racy in
  check "tenant RMW is an error" true
    (List.exists
       (fun d ->
         d.Diagnostics.code = "FBV052"
         && d.Diagnostics.severity = Diagnostics.Error)
       ds);
  check "racy map needs an exclusive shard" true (has_code "FBV051" ds);
  let sketch = load_example "commutative_sketch.fbpf" in
  let ds = Verifier.check sketch in
  check "sketch map is commutative" true (has_code "FBV050" ds);
  check "datapath read of partial counts noted" true (has_code "FBV053" ds);
  check "sketch has nothing above info" true
    (Diagnostics.max_severity ds = Some Diagnostics.Info);
  (* infra may pin an RMW map to one shard: warning, not error *)
  let infra_rmw =
    program "pinned" ~owner:"infra"
      ~maps:[ map_decl ~key_arity:1 ~size:16 "tok" ]
      [ block "b"
          [ map_put "tok" [ const 0 ]
              ((map_get "tok" [ const 0 ] *: const 2) +: const 1) ] ]
  in
  check "infra RMW is a warning" true
    (List.exists
       (fun d ->
         d.Diagnostics.code = "FBV052"
         && d.Diagnostics.severity = Diagnostics.Warning)
       (Verifier.verify infra_rmw));
  (* mixing increments with puts on one map defeats merge-by-sum *)
  let mixed =
    program "mixed" ~maps:[ map_decl ~key_arity:1 ~size:16 "m" ]
      [ block "b"
          [ map_incr "m" [ const 0 ];
            map_put "m" [ const 1 ] (const 7) ] ]
  in
  check "mixed incr+put flagged" true
    (has_code "FBV054" (Verifier.verify mixed))

let test_static_cost_pass () =
  (* a statically dead else-arm twice the live arm's weight: the
     planner heuristic (max over arms) charges >= 2x the certified cost *)
  let divergent =
    program "divergent"
      [ block "b"
          [ if_ (const 1 =: const 1)
              [ set_meta "x" (const 1) ]
              (List.init 8 (fun i -> set_meta "y" (const i))) ] ]
  in
  check "heuristic/certificate divergence flagged" true
    (has_code "FBV061" (Verifier.verify divergent));
  let ck = Compiler.Plan.cost_check divergent in
  check "plan cross-check agrees" true ck.Compiler.Plan.ck_divergent;
  check_int "heuristic matches Analysis.max_cycles"
    (Analysis.max_cycles divergent) ck.Compiler.Plan.ck_heuristic;
  (* no dead branches: certificate equals heuristic, no divergence *)
  let straight = Apps.L2l3.program () in
  let ck = Compiler.Plan.cost_check straight in
  check "straight-line program converges" false ck.Compiler.Plan.ck_divergent;
  check_int "certified = heuristic without dead code" ck.Compiler.Plan.ck_heuristic
    ck.Compiler.Plan.ck_certified

let test_certificates_on_examples () =
  (* Analysis.certify must attach both framework certificates to every
     accepted example, and parallel_safety must classify the two
     shard-safety fixtures as designed. *)
  List.iter
    (fun f ->
      let p = load_example f in
      match Analysis.certify p with
      | Error _ -> () (* bad_probe / racy_counter: rejected is fine *)
      | Ok cert ->
        let par = cert.Analysis.cert_parallel in
        check (f ^ " parallel certificate names the program") true
          (par.Dataflow.Shard_safety.ps_program = p.Ast.prog_name);
        check (f ^ " cost certificate is positive") true
          (cert.Analysis.cert_cost.Dataflow.Cost.cc_certified > 0))
    (example_files ());
  let verdict f =
    (Analysis.parallel_safety (load_example f)).Dataflow.Shard_safety.ps_verdict
  in
  check "racy_counter is exclusive" true
    (verdict "racy_counter.fbpf" = Dataflow.Shard_safety.Exclusive);
  check "commutative_sketch is commutative" true
    (verdict "commutative_sketch.fbpf" = Dataflow.Shard_safety.Commutative)

let test_verifier_handles_ill_typed () =
  let bad =
    program "bad" [ block "b" [ set_meta "x" (field "ipv4" "nonexistent") ] ]
  in
  let ds = Verifier.check bad in
  check "typecheck failures become FBV000" true (has_code "FBV000" ds);
  check "all FBV000 are errors" true
    (List.for_all
       (fun d -> d.Diagnostics.severity = Diagnostics.Error)
       (List.filter (fun d -> d.Diagnostics.code = "FBV000") ds))

(* -- Certification gate --------------------------------------------------- *)

let test_certify_gate () =
  let bad = load_example "bad_probe.fbpf" in
  (match Analysis.certify bad with
   | Error (Analysis.Unsafe errs) ->
     check "rejection carries the errors" true (has_code "FBV001" errs)
   | _ -> Alcotest.fail "expected Unsafe rejection");
  (match Analysis.certify ~verifier:false bad with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "verifier=false must skip the gate");
  match Analysis.certify (Apps.Telemetry.program ()) with
  | Ok cert ->
    check "warnings attached to certificate" true
      (has_code "FBV002" cert.Analysis.cert_warnings)
  | Error _ -> Alcotest.fail "telemetry must certify"

let test_tenant_diagnostics_recorded () =
  let sim = Netsim.Sim.create () in
  let path =
    [ Targets.Device.create ~id:"h0" Targets.Arch.host_ebpf;
      Targets.Device.create ~id:"s0" Targets.Arch.drmt;
      Targets.Device.create ~id:"h1" Targets.Arch.host_ebpf ]
  in
  let dep =
    match Runtime.Reconfig.deploy ~path (Apps.L2l3.program ()) with
    | Ok dep -> dep
    | Error f -> Alcotest.failf "deploy: %a" Compiler.Placement.pp_failure f
  in
  let tenants = Control.Tenants.create ~sim dep in
  let ext = Apps.Firewall.program ~owner:"acme" () in
  match Control.Tenants.admit tenants ~cert:(Flexbpf.Analysis.certify ext) ext with
  | Error e -> Alcotest.failf "admit: %a" Control.Tenants.pp_admission_error e
  | Ok (tenant, _) ->
    check "admission records verifier findings" true
      (tenant.Control.Tenants.diagnostics <> []);
    check "recorded findings are sub-error" true
      (Diagnostics.errors tenant.Control.Tenants.diagnostics = []);
    check "admission records the shard-safety certificate" true
      (tenant.Control.Tenants.parallel.Dataflow.Shard_safety.ps_maps <> []);
    check "admission records the cost certificate" true
      (tenant.Control.Tenants.static_cost.Dataflow.Cost.cc_certified > 0)

(* -- Duplicate declarations (Typecheck) ----------------------------------- *)

let dup_rejected name p sub =
  match Typecheck.check_program p with
  | Ok () -> Alcotest.failf "%s: duplicate accepted" name
  | Error es ->
    check name true
      (List.exists (fun e -> contains e.Typecheck.what sub) es)

let test_duplicate_declarations () =
  dup_rejected "duplicate header field"
    (program "p"
       ~headers:(header "h" [ ("a", 8); ("a", 16) ] :: standard_headers)
       [ block "b" [ Ast.Nop ] ])
    "duplicate field a";
  dup_rejected "duplicate header"
    (program "p"
       ~headers:(standard_headers @ [ header "ethernet" [ ("x", 8) ] ])
       [ block "b" [ Ast.Nop ] ])
    "duplicate header ethernet";
  dup_rejected "duplicate map"
    (program "p"
       ~maps:[ map_decl ~size:4 "m"; map_decl ~size:8 "m" ]
       [ block "b" [ Ast.Nop ] ])
    "duplicate map m";
  dup_rejected "duplicate element"
    (program "p" [ block "b" [ Ast.Nop ]; block "b" [ Ast.Drop ] ])
    "duplicate element b";
  dup_rejected "duplicate parser rule"
    (program "p"
       ~parser:(standard_parser @ [ parser_rule "parse_eth" [ "vlan" ] ])
       [ block "b" [ Ast.Nop ] ])
    "duplicate parser rule parse_eth";
  dup_rejected "duplicate action"
    (program "p"
       [ table "t"
           ~keys:[ exact (field "ipv4" "dst") ]
           ~actions:[ action "a" [ Ast.Nop ]; action "a" [ Ast.Drop ] ]
           ~default:("a", []) () ])
    "duplicate action a"

let () =
  Alcotest.run "verifier"
    [
      ("diagnostics",
       [ Alcotest.test_case "severity order" `Quick test_severity_order;
         Alcotest.test_case "normalize" `Quick test_normalize ]);
      ("shipped programs",
       [ Alcotest.test_case "apps verify clean" `Quick test_apps_no_errors;
         Alcotest.test_case "examples verify clean" `Quick
           test_examples_no_errors;
         Alcotest.test_case "warning snapshot" `Quick test_warning_snapshot ]);
      ("bad program",
       [ Alcotest.test_case "bad_probe diagnostics" `Quick test_bad_probe ]);
      ("passes",
       [ Alcotest.test_case "uninit if-join" `Quick test_uninit_if_join;
         Alcotest.test_case "uninit push/pop" `Quick
           test_uninit_header_via_push;
         Alcotest.test_case "dead code" `Quick test_dead_code_pass;
         Alcotest.test_case "dead code behind constant guard" `Quick
           test_dead_after_const_drop_loop;
         Alcotest.test_case "value range" `Quick test_range_pass;
         Alcotest.test_case "tenant isolation" `Quick test_isolation_pass;
         Alcotest.test_case "shard safety" `Quick test_shard_safety_pass;
         Alcotest.test_case "static cost" `Quick test_static_cost_pass;
         Alcotest.test_case "example certificates" `Quick
           test_certificates_on_examples;
         Alcotest.test_case "ill-typed input" `Quick
           test_verifier_handles_ill_typed ]);
      ("gate",
       [ Alcotest.test_case "certify gate" `Quick test_certify_gate;
         Alcotest.test_case "tenant diagnostics" `Quick
           test_tenant_diagnostics_recorded ]);
      ("typecheck",
       [ Alcotest.test_case "duplicate declarations" `Quick
           test_duplicate_declarations ]);
    ]
