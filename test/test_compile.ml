(* The closure-compiled fast path (Flexbpf.Compile) against the
   reference interpreter (Flexbpf.Interp):

   - a qcheck differential harness: random programs, rule sets, and
     packets — interleaved with rule installs/removes and clock moves —
     must produce identical verdicts, packet mutations, map state, and
     stats counters under both engines;
   - unit tests that rule install/remove keeps the hash index and the
     pre-sorted candidate lists consistent, including across a device's
     freeze/thaw two-version swap (Runtime.Reconfig's mechanism);
   - the install-time rule-arity validation regression test;
   - key-buffer aliasing: a map update keyed by a read of the same map;
   - the allocation gate: exact minor-heap words per compiled run. *)

open Flexbpf
open Flexbpf.Builder

let check = Alcotest.(check bool)
let check_port = Alcotest.(check (option int))
let to_alcotest = QCheck_alcotest.to_alcotest

(* -- Generators ------------------------------------------------------------ *)

(* Key expressions drawn from fields of sometimes-absent headers (vlan,
   tcp) so key evaluation faults are exercised, plus metadata. *)
let key_expr_gen =
  QCheck.Gen.oneofl
    [ field "ipv4" "src"; field "ipv4" "dst"; field "ipv4" "proto";
      field "tcp" "sport"; field "tcp" "dport"; field "vlan" "vid";
      meta "m0" ]

let expr_gen =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then
          oneof
            [ map (fun v -> Ast.Const (Int64.of_int v)) (int_bound 64);
              key_expr_gen;
              return Ast.Time;
              map (fun p -> Ast.Param p) (oneofl [ "p"; "q"; "ghost" ]);
              map (fun k -> Ast.Map_get ("m0", [ Ast.Const (Int64.of_int k) ]))
                (int_bound 31) ]
        else
          oneof
            [ map3
                (fun op a b -> Ast.Bin (op, a, b))
                (oneofl
                   [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod; Ast.Band;
                     Ast.Bor; Ast.Bxor; Ast.Shl; Ast.Shr; Ast.Eq; Ast.Neq;
                     Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.Land; Ast.Lor ])
                (self (n / 2)) (self (n / 2));
              map2
                (fun op e -> Ast.Un (op, e))
                (oneofl [ Ast.Not; Ast.Neg; Ast.Bnot ])
                (self (n / 2));
              map2
                (fun alg es -> Ast.Hash (alg, es))
                (oneofl [ Ast.Crc16; Ast.Crc32; Ast.Identity ])
                (list_size (int_range 1 3) (self (n / 3))) ]))

let stmt_gen =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [ return Ast.Nop; return Ast.Drop;
              map2 (fun m e -> Ast.Set_meta (m, e)) (oneofl [ "m0"; "m1" ])
                expr_gen;
              map (fun e -> Ast.Set_field ("ipv4", "ttl", e)) expr_gen;
              map2
                (fun k v ->
                  Ast.Map_put ("m0", [ Ast.Const (Int64.of_int k) ],
                               Ast.Const (Int64.of_int v)))
                (int_bound 31) (int_bound 100);
              map2
                (fun k e ->
                  let k = Ast.Const (Int64.of_int k) in
                  Ast.Map_incr ("m1", [ k; k ], e))
                (int_bound 15) expr_gen;
              map (fun k -> Ast.Map_del ("m0", [ Ast.Const (Int64.of_int k) ]))
                (int_bound 31);
              (* a key that reads the map being updated: the compiled
                 path fills one key buffer per access site, and the
                 inner read must not disturb the outer key *)
              map3
                (fun two k e ->
                  if two then
                    Ast.Map_incr ("m1", [ k; Ast.Map_get ("m1", [ k; k ]) ], e)
                  else Ast.Map_incr ("m0", [ Ast.Map_get ("m0", [ k ]) ], e))
                bool key_expr_gen expr_gen;
              map (fun e -> Ast.Forward e) expr_gen;
              map (fun d -> Ast.Punt d) (oneofl [ "alpha"; "beta" ]);
              map (fun args -> Ast.Call ("svc", args))
                (list_size (int_bound 2) expr_gen) ]
        in
        if n <= 0 then leaf
        else
          oneof
            [ leaf;
              map3
                (fun c th el -> Ast.If (c, th, el))
                expr_gen
                (list_size (int_bound 3) (self (n / 3)))
                (list_size (int_bound 2) (self (n / 3)));
              map2
                (fun k body -> Ast.Loop (1 + k, body))
                (int_bound 4)
                (list_size (int_range 1 3) (self (n / 3))) ]))

let table_gen =
  QCheck.Gen.(
    map2
      (fun keys act_body ->
        table "t0" ~keys
          ~actions:
            [ action "set_port" ~params:[ "p" ] [ forward (param "p") ];
              action "mark" ~params:[ "p"; "q" ]
                [ set_meta "m1" (param "p" +: param "q") ];
              action "custom" act_body;
              action "refuse" [ drop ] ]
          ~default:("refuse", []) ~size:128 ())
      (list_size (int_range 1 3)
         (pair key_expr_gen (oneofl [ Ast.Exact; Ast.Lpm; Ast.Ternary; Ast.Range ])))
      (list_size (int_bound 3) stmt_gen))

let program_gen =
  QCheck.Gen.(
    map3
      (fun enc blocks tbl ->
        let pipeline =
          List.mapi (fun i body -> block (Printf.sprintf "b%d" i) body) blocks
        in
        (* table position varies: before, between, or after the blocks *)
        let pipeline =
          match pipeline with
          | [] -> [ tbl ]
          | x :: rest -> x :: tbl :: rest
        in
        Builder.program "diff"
          ~maps:
            [ Builder.map_decl ~encoding:enc ~key_arity:1 ~size:64 "m0";
              Builder.map_decl ~key_arity:2 ~size:128 "m1" ]
          pipeline)
      (oneofl
         [ Ast.Enc_auto; Ast.Enc_registers; Ast.Enc_flow_state;
           Ast.Enc_stateful_table ])
      (list_size (int_range 0 3) (list_size (int_bound 4) stmt_gen))
      table_gen)

(* Patterns for a single key; values small so exact/lpm/ternary rules
   actually hit generated packets. *)
let pattern_gen =
  QCheck.Gen.(
    oneof
      [ return Ast.P_any;
        map (fun v -> Ast.P_exact (Int64.of_int v)) (int_bound 8);
        map2 (fun v len -> Ast.P_lpm (Int64.of_int v, len)) (int_bound 8)
          (oneofl [ 0; 8; 24; 30; 31; 32 ]);
        map2
          (fun v m -> Ast.P_ternary (Int64.of_int v, Int64.of_int m))
          (int_bound 8) (oneofl [ 0; 1; 3; 7; 0xFF ]);
        map2
          (fun a b ->
            Ast.P_range (Int64.of_int (min a b), Int64.of_int (max a b)))
          (int_bound 10) (int_bound 300) ])

(* A rule for a table of [arity] keys. Mostly well-formed; some have an
   unknown action or wrong argument arity so the differential harness
   covers the selection-time error paths too. *)
let rule_gen arity =
  QCheck.Gen.(
    map3
      (fun prio matches (act, args) ->
        { Ast.rule_priority = prio; matches; rule_action = act;
          rule_args = List.map Int64.of_int args })
      (int_bound 3)
      (list_repeat arity pattern_gen)
      (oneof
         [ map (fun p -> ("set_port", [ p ])) (int_bound 9);
           return ("mark", [ 2; 3 ]);
           return ("custom", []);
           return ("refuse", []);
           return ("set_port", []); (* arity mismatch *)
           return ("nonesuch", []) (* missing action *) ]))

type pkt_spec = {
  with_vlan : bool;
  with_ipv4 : bool;
  l4 : int; (* 0 = none, 1 = tcp, 2 = udp *)
  src : int;
  dst : int;
  sport : int;
  dport : int;
}

let pkt_spec_gen =
  QCheck.Gen.(
    map
      (fun ((with_vlan, with_ipv4, l4), (src, dst, sport, dport)) ->
        { with_vlan; with_ipv4; l4; src; dst; sport; dport })
      (pair
         (triple bool (frequencyl [ (9, true); (1, false) ]) (int_bound 2))
         (quad (int_bound 8) (int_bound 8) (int_bound 300) (int_bound 300))))

let mk_pkt spec =
  let hs =
    [ Netsim.Packet.ethernet ~src:(Int64.of_int spec.src)
        ~dst:(Int64.of_int spec.dst) () ]
    @ (if spec.with_vlan then [ Netsim.Packet.vlan ~vid:5L () ] else [])
    @ (if spec.with_ipv4 then
         [ Netsim.Packet.ipv4 ~src:(Int64.of_int spec.src)
             ~dst:(Int64.of_int spec.dst) () ]
       else [])
    @
    match spec.l4 with
    | 1 ->
      [ Netsim.Packet.tcp ~sport:(Int64.of_int spec.sport)
          ~dport:(Int64.of_int spec.dport) () ]
    | 2 ->
      [ Netsim.Packet.udp ~sport:(Int64.of_int spec.sport)
          ~dport:(Int64.of_int spec.dport) () ]
    | _ -> []
  in
  Netsim.Packet.create hs

type op =
  | Run of pkt_spec
  | Install of Ast.rule
  | RemoveAbove of int (* remove rules with priority >= n *)
  | Advance of int (* move the virtual clock *)

let op_gen arity =
  QCheck.Gen.(
    frequency
      [ (6, map (fun s -> Run s) pkt_spec_gen);
        (3, map (fun r -> Install r) (rule_gen arity));
        (1, map (fun n -> RemoveAbove n) (int_bound 3));
        (1, map (fun n -> Advance n) (int_bound 1000)) ])

let scenario_gen =
  QCheck.Gen.(
    program_gen >>= fun prog ->
    let arity =
      match Ast.find_table prog "t0" with
      | Some t -> List.length t.Ast.keys
      | None -> 1
    in
    map (fun ops -> (prog, ops)) (list_size (int_range 1 25) (op_gen arity)))

let scenario_print (prog, ops) =
  Printf.sprintf "%s\n-- %d ops: %s" (Syntax.print prog) (List.length ops)
    (String.concat ";"
       (List.map
          (function
            | Run s ->
              Printf.sprintf "run{vlan=%b,ipv4=%b,l4=%d,src=%d,dst=%d,sp=%d,dp=%d}"
                s.with_vlan s.with_ipv4 s.l4 s.src s.dst s.sport s.dport
            | Install r ->
              Printf.sprintf "install{prio=%d,action=%s,%d args,%d matches}"
                r.Ast.rule_priority r.Ast.rule_action
                (List.length r.Ast.rule_args)
                (List.length r.Ast.matches)
            | RemoveAbove n -> Printf.sprintf "remove>=%d" n
            | Advance n -> Printf.sprintf "advance+%d" n)
          ops))

let scenario_arb = QCheck.make ~print:scenario_print scenario_gen

(* -- Observations ----------------------------------------------------------- *)

let meta_list pkt =
  Hashtbl.fold (fun k c acc -> (k, !c) :: acc) pkt.Netsim.Packet.meta []
  |> List.sort compare

let headers_list pkt =
  List.map
    (fun h -> (h.Netsim.Packet.hname, h.Netsim.Packet.fields))
    pkt.Netsim.Packet.headers

let results_agree (a : Interp.result) (b : Interp.result) =
  a.Interp.parse_ok = b.Interp.parse_ok
  && a.Interp.runtime_error = b.Interp.runtime_error
  && a.Interp.verdict.Interp.egress = b.Interp.verdict.Interp.egress
  && a.Interp.verdict.Interp.dropped = b.Interp.verdict.Interp.dropped
  && a.Interp.verdict.Interp.punts = b.Interp.verdict.Interp.punts

let envs_agree prog env_a env_b =
  List.for_all
    (fun (m : Ast.map_decl) ->
      State.snapshot (Interp.env_map env_a m.Ast.map_name)
      = State.snapshot (Interp.env_map env_b m.Ast.map_name))
    prog.Ast.maps
  && Obs.Metrics.counters_list env_a.Interp.stats
     = Obs.Metrics.counters_list env_b.Interp.stats

(* -- The differential property ----------------------------------------------- *)

let prop_compiled_equals_interpreted =
  QCheck.Test.make ~name:"compiled = interpreted (verdict, maps, stats)"
    ~count:300 scenario_arb
    (fun (prog, ops) ->
      let env_a = Interp.create_env prog in
      let env_b = Interp.create_env prog in
      let punts_a = ref [] and punts_b = ref [] in
      env_a.Interp.punt <- (fun d _ -> punts_a := d :: !punts_a);
      env_b.Interp.punt <- (fun d _ -> punts_b := d :: !punts_b);
      env_a.Interp.drpc <- (fun _ args -> List.fold_left Int64.add 1L args);
      env_b.Interp.drpc <- (fun _ args -> List.fold_left Int64.add 1L args);
      let compiled = Compile.compile env_b prog in
      let install env r =
        match Interp.install_rule env "t0" r with
        | () -> true
        | exception Interp.Eval_error _ -> false
      in
      List.for_all
        (fun op ->
          match op with
          | Install r ->
            (* both engines must agree on install-time validation *)
            install env_a r = install env_b r
          | RemoveAbove n ->
            Interp.remove_rules env_a "t0" (fun r -> r.Ast.rule_priority >= n);
            Interp.remove_rules env_b "t0" (fun r -> r.Ast.rule_priority >= n);
            true
          | Advance n ->
            env_a.Interp.now_us <- Int64.add env_a.Interp.now_us (Int64.of_int n);
            env_b.Interp.now_us <- Int64.add env_b.Interp.now_us (Int64.of_int n);
            true
          | Run spec ->
            let pkt_a = mk_pkt spec and pkt_b = mk_pkt spec in
            let ra = Interp.run env_a prog pkt_a in
            let rb = Compile.run compiled pkt_b in
            results_agree ra rb
            && meta_list pkt_a = meta_list pkt_b
            && headers_list pkt_a = headers_list pkt_b)
        ops
      && envs_agree prog env_a env_b
      && !punts_a = !punts_b)

(* The tiered datapath against the unbounded reference: same scenarios,
   but env_b's "t0" device tier is capped at 1..4 memoized winners, far
   below the generated rule sets — every lookup beyond the cap faults to
   the authoritative host tier and promotes under LRU pressure. Verdicts,
   packet mutations, map state, stats counters, and punts must all stay
   identical: residency is a latency property, never a semantic one. *)
let tiered_arb =
  QCheck.make
    ~print:(fun (sc, cap) ->
      Printf.sprintf "device-tier cap=%d\n%s" cap (scenario_print sc))
    QCheck.Gen.(pair scenario_gen (int_range 1 4))

let prop_tiered_equals_interpreted =
  QCheck.Test.make
    ~name:"tiered compiled = interpreted under eviction pressure" ~count:300
    tiered_arb
    (fun ((prog, ops), cap) ->
      let env_a = Interp.create_env prog in
      let env_b = Interp.create_env prog in
      let punts_a = ref [] and punts_b = ref [] in
      env_a.Interp.punt <- (fun d _ -> punts_a := d :: !punts_a);
      env_b.Interp.punt <- (fun d _ -> punts_b := d :: !punts_b);
      env_a.Interp.drpc <- (fun _ args -> List.fold_left Int64.add 1L args);
      env_b.Interp.drpc <- (fun _ args -> List.fold_left Int64.add 1L args);
      Interp.set_tier_capacity env_b "t0" cap;
      let compiled = Compile.compile env_b prog in
      let install env r =
        match Interp.install_rule env "t0" r with
        | () -> true
        | exception Interp.Eval_error _ -> false
      in
      List.for_all
        (fun op ->
          match op with
          | Install r -> install env_a r = install env_b r
          | RemoveAbove n ->
            Interp.remove_rules env_a "t0" (fun r -> r.Ast.rule_priority >= n);
            Interp.remove_rules env_b "t0" (fun r -> r.Ast.rule_priority >= n);
            true
          | Advance n ->
            env_a.Interp.now_us <- Int64.add env_a.Interp.now_us (Int64.of_int n);
            env_b.Interp.now_us <- Int64.add env_b.Interp.now_us (Int64.of_int n);
            true
          | Run spec ->
            let pkt_a = mk_pkt spec and pkt_b = mk_pkt spec in
            let ra = Interp.run env_a prog pkt_a in
            let rb = Compile.run compiled pkt_b in
            results_agree ra rb
            && meta_list pkt_a = meta_list pkt_b
            && headers_list pkt_a = headers_list pkt_b)
        ops
      && envs_agree prog env_a env_b
      && !punts_a = !punts_b
      && List.for_all
           (fun (s : Compile.tier_stat) -> s.Compile.ts_resident <= cap)
           (Compile.tier_stats compiled))

(* Recompiling mid-stream against live state must not change behaviour:
   a fresh Compile.t over the same env picks up installed rules and map
   contents. *)
let prop_recompile_transparent =
  QCheck.Test.make ~name:"recompile over live env is transparent" ~count:100
    scenario_arb
    (fun (prog, ops) ->
      let env_a = Interp.create_env prog in
      let env_b = Interp.create_env prog in
      let compiled = ref (Compile.compile env_b prog) in
      let steps = ref 0 in
      List.for_all
        (fun op ->
          incr steps;
          if !steps mod 5 = 0 then compiled := Compile.compile env_b prog;
          match op with
          | Install r ->
            (try Interp.install_rule env_a "t0" r
             with Interp.Eval_error _ -> ());
            (try Interp.install_rule env_b "t0" r
             with Interp.Eval_error _ -> ());
            true
          | RemoveAbove n ->
            Interp.remove_rules env_a "t0" (fun r -> r.Ast.rule_priority >= n);
            Interp.remove_rules env_b "t0" (fun r -> r.Ast.rule_priority >= n);
            true
          | Advance _ -> true
          | Run spec ->
            let pkt_a = mk_pkt spec and pkt_b = mk_pkt spec in
            results_agree (Interp.run env_a prog pkt_a)
              (Compile.run !compiled pkt_b))
        ops
      && envs_agree prog env_a env_b)

(* Recompiling after a patch with [~prev] (reusing the closures of
   unchanged elements) against a fresh compile and the interpreter: the
   same scenarios, interleaved with patches that add, remove and replace
   blocks and change the table's default. After every step the three
   engines agree packet by packet, and the reusing and the fresh compile
   report the same device-tier telemetry — a reused table starts a new
   tier exactly as a freshly compiled one does. *)
type pstep =
  | Step of op
  | Add_block of int * Ast.stmt list (* before the n-th element, or at the end *)
  | Remove_block of int
  | Replace_block of int * Ast.stmt list
  | Default of string * int64 list

let pstep_gen arity =
  QCheck.Gen.(
    frequency
      [ (8, map (fun o -> Step o) (op_gen arity));
        (1, map2 (fun i b -> Add_block (i, b)) (int_bound 5)
              (list_size (int_range 1 3) stmt_gen));
        (1, map (fun i -> Remove_block i) (int_bound 5));
        (1, map2 (fun i b -> Replace_block (i, b)) (int_bound 5)
              (list_size (int_range 1 3) stmt_gen));
        (1, map (fun (a, args) -> Default (a, args))
              (oneofl
                 [ ("refuse", []); ("set_port", [ 3L ]); ("mark", [ 1L; 2L ]) ])) ])

(* The patch a step denotes on [prog]; [None] for packet steps and for
   steps naming a block the program lacks. *)
let patch_of_step prog step =
  let blocks =
    List.filter_map
      (function Ast.Block b -> Some b.Ast.blk_name | Ast.Table _ -> None)
      prog.Ast.pipeline
  in
  let nth_block i =
    match blocks with [] -> None | _ -> Some (List.nth blocks (i mod List.length blocks))
  in
  let fresh = ref 0 in
  let rec fresh_name () =
    incr fresh;
    let n = Printf.sprintf "nb%d" !fresh in
    if Ast.find_element prog n = None then n else fresh_name ()
  in
  Option.map (Patch.v "step")
    (match step with
     | Step _ -> None
     | Add_block (i, body) ->
       let pos =
         match List.nth_opt prog.Ast.pipeline i with
         | Some e -> Patch.Before (Patch.Sel_name (Ast.element_name e))
         | None -> Patch.At_end
       in
       Some [ Patch.Add_element (pos, block (fresh_name ()) body) ]
     | Remove_block i ->
       Option.map (fun n -> [ Patch.Remove_element (Patch.Sel_name n) ]) (nth_block i)
     | Replace_block (i, body) ->
       Option.map
         (fun n -> [ Patch.Replace_element (Patch.Sel_name n, block n body) ])
         (nth_block i)
     | Default (a, args) -> Some [ Patch.Set_default (Patch.Sel_name "t0", (a, args)) ])

let patched_arb =
  QCheck.make
    ~print:(fun ((prog, steps), cap) ->
      Printf.sprintf "device-tier cap=%d, %d steps\n%s" cap (List.length steps)
        (Syntax.print prog))
    QCheck.Gen.(
      pair
        (program_gen >>= fun prog ->
         let arity =
           match Ast.find_table prog "t0" with
           | Some t -> List.length t.Ast.keys
           | None -> 1
         in
         map (fun steps -> (prog, steps)) (list_size (int_range 1 40) (pstep_gen arity)))
        (int_range 1 4))

let prop_patched_recompile_equals_fresh =
  QCheck.Test.make
    ~name:"recompile ~prev over patches = fresh compile = interpreted"
    ~count:200 patched_arb
    (fun ((prog0, steps), cap) ->
      let envs = List.init 3 (fun _ -> Interp.create_env prog0) in
      let env_a, env_b, env_c =
        match envs with [ a; b; c ] -> (a, b, c) | _ -> assert false
      in
      List.iter
        (fun env ->
          env.Interp.drpc <- (fun _ args -> List.fold_left Int64.add 1L args))
        envs;
      Interp.set_tier_capacity env_b "t0" cap;
      Interp.set_tier_capacity env_c "t0" cap;
      let prog = ref prog0 in
      let reused = ref (Compile.compile env_b prog0) in
      let fresh = ref (Compile.compile env_c prog0) in
      let install env r =
        match Interp.install_rule env "t0" r with
        | () -> true
        | exception Interp.Eval_error _ -> false
      in
      List.for_all
        (fun step ->
          (match patch_of_step !prog step with
           | None -> ()
           | Some patch ->
             (match Patch.apply_ops patch !prog with
              | Error _ -> ()
              | Ok (p, _) ->
                prog := p;
                reused := Compile.compile ~prev:!reused env_b p;
                fresh := Compile.compile env_c p));
          (match step with
           | Step (Install r) ->
             let a = install env_a r in
             a = install env_b r && a = install env_c r
           | Step (RemoveAbove n) ->
             List.iter
               (fun env -> Interp.remove_rules env "t0" (fun r -> r.Ast.rule_priority >= n))
               envs;
             true
           | Step (Advance n) ->
             List.iter
               (fun env ->
                 env.Interp.now_us <- Int64.add env.Interp.now_us (Int64.of_int n))
               envs;
             true
           | Step (Run spec) ->
             let pkt_a = mk_pkt spec and pkt_b = mk_pkt spec and pkt_c = mk_pkt spec in
             let ra = Interp.run env_a !prog pkt_a in
             let rb = Compile.run !reused pkt_b in
             let rc = Compile.run !fresh pkt_c in
             results_agree ra rb && results_agree ra rc
             && meta_list pkt_a = meta_list pkt_b
             && meta_list pkt_a = meta_list pkt_c
             && headers_list pkt_a = headers_list pkt_b
             && headers_list pkt_a = headers_list pkt_c
           | Add_block _ | Remove_block _ | Replace_block _ | Default _ -> true)
          && Compile.tier_stats !reused = Compile.tier_stats !fresh)
        steps
      && envs_agree !prog env_a env_b
      && envs_agree !prog env_a env_c)

(* The self-referencing update [incr m [get(m, dst)]] under every
   encoding: the inner read and the outer update fill different key
   buffers, so compiled state must match the interpreter's packet by
   packet, inserts (which copy the outer buffer) included. *)
let test_incr_keyed_by_own_get () =
  List.iter
    (fun (name, encoding) ->
      let prog =
        program "self"
          ~maps:[ map_decl ~encoding ~key_arity:1 ~size:4 "m" ]
          [ block "b" [ map_incr "m" [ map_get "m" [ field "ipv4" "dst" ] ] ] ]
      in
      let env_a = Interp.create_env prog and env_b = Interp.create_env prog in
      let compiled = Compile.compile env_b prog in
      for i = 0 to 39 do
        let spec =
          { with_vlan = false; with_ipv4 = true; l4 = 1; src = 1;
            dst = i mod 6; sport = 1; dport = 2 }
        in
        let ra = Interp.run env_a prog (mk_pkt spec)
        and rb = Compile.run compiled (mk_pkt spec) in
        check "same verdict" true (results_agree ra rb);
        check
          (Printf.sprintf "%s: same map after packet %d" name i)
          true (envs_agree prog env_a env_b)
      done)
    [ ("registers", Ast.Enc_registers); ("flow_state", Ast.Enc_flow_state);
      ("stateful_table", Ast.Enc_stateful_table) ]

(* -- Install-time arity validation (regression) ------------------------------- *)

let two_key_prog =
  program "p"
    [ table "t"
        ~keys:[ exact (field "ipv4" "dst"); exact (field "ipv4" "src") ]
        ~actions:[ action "fwd" ~params:[ "p" ] [ forward (param "p") ] ]
        ~default:("nop", []) () ]

let test_install_arity_validated () =
  let env = Interp.create_env two_key_prog in
  (match
     Interp.install_rule env "t"
       (rule ~matches:[ exact_i 1 ] ~action:("fwd", [ 1 ]) ())
   with
   | () -> Alcotest.fail "under-arity rule must be rejected"
   | exception Interp.Eval_error msg ->
     check "error mentions pattern and key counts" true
       (let has sub =
          let n = String.length msg and m = String.length sub in
          let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
          go 0
        in
        has "1" && has "2"));
  (match
     Interp.install_rule env "t"
       (rule ~matches:[ exact_i 1; exact_i 2; exact_i 3 ] ~action:("fwd", [ 1 ]) ())
   with
   | () -> Alcotest.fail "over-arity rule must be rejected"
   | exception Interp.Eval_error _ -> ());
  (* correct arity accepted *)
  Interp.install_rule env "t"
    (rule ~matches:[ exact_i 1; exact_i 2 ] ~action:("fwd", [ 1 ]) ());
  Alcotest.(check int) "rule installed" 1
    (List.length (Interp.table_rules env "t"));
  (* unregistered tables keep the historical permissive behaviour *)
  Interp.install_rule env "unknown_table"
    (rule ~matches:[ exact_i 1 ] ~action:("x", []) ())

(* -- Index consistency under install/remove ----------------------------------- *)

let fwd_table =
  table "t"
    ~keys:[ exact (field "ipv4" "dst") ]
    ~actions:[ action "fwd" ~params:[ "p" ] [ forward (param "p") ] ]
    ~default:("nop", []) ()

let exec_compiled compiled dst =
  let pkt =
    Netsim.Packet.create
      [ Netsim.Packet.ethernet ~src:1L ~dst ();
        Netsim.Packet.ipv4 ~src:1L ~dst ();
        Netsim.Packet.tcp ~sport:1L ~dport:2L () ]
  in
  (Compile.run compiled pkt).Interp.verdict.Interp.egress

let test_hash_index_tracks_rules () =
  let prog = program "p" [ fwd_table ] in
  let env = Interp.create_env prog in
  let compiled = Compile.compile env prog in
  check_port "no rules: default" None (exec_compiled compiled 2L);
  Interp.install_rule env "t" (rule ~matches:[ exact_i 2 ] ~action:("fwd", [ 7 ]) ());
  check_port "install picked up" (Some 7) (exec_compiled compiled 2L);
  Interp.install_rule env "t"
    (rule ~priority:5 ~matches:[ exact_i 2 ] ~action:("fwd", [ 9 ]) ());
  check_port "higher priority shadows" (Some 9) (exec_compiled compiled 2L);
  Interp.remove_rules env "t" (fun r -> r.Ast.rule_priority = 5);
  check_port "remove restores" (Some 7) (exec_compiled compiled 2L);
  Interp.remove_rules env "t" (fun _ -> true);
  check_port "empty again" None (exec_compiled compiled 2L)

(* Mixing a non-exact rule into an exact table must demote the hash
   index to a scan list — transparently. *)
let test_index_demotes_to_scan () =
  let prog = program "p" [ fwd_table ] in
  let env = Interp.create_env prog in
  let compiled = Compile.compile env prog in
  Interp.install_rule env "t" (rule ~matches:[ exact_i 2 ] ~action:("fwd", [ 7 ]) ());
  check_port "exact hit" (Some 7) (exec_compiled compiled 2L);
  Interp.install_rule env "t"
    (rule ~priority:1 ~matches:[ lpm_i 0 0 ] ~action:("fwd", [ 3 ]) ());
  check_port "wildcard lpm wins on other key" (Some 3) (exec_compiled compiled 9L);
  check_port "higher-priority lpm wins on exact key too" (Some 3)
    (exec_compiled compiled 2L);
  Interp.remove_rules env "t" (fun r -> r.Ast.rule_priority = 1);
  check_port "back to exact index" (Some 7) (exec_compiled compiled 2L)

(* Regression: a cached device-tier winner must not survive the deletion
   or priority update of the rule that produced it. Every install_rule /
   remove_rules bumps the per-env rules generation; the tier flushes on
   the next lookup (counted as demotions), so lookups after the change
   re-fault against the authoritative host tier. *)
let test_tier_invalidated_on_rule_change () =
  let prog = program "p" [ fwd_table ] in
  let env = Interp.create_env prog in
  Interp.set_tier_capacity env "t" 2;
  let compiled = Compile.compile env prog in
  for d = 1 to 4 do
    Interp.install_rule env "t"
      (rule ~matches:[ exact_i d ] ~action:("fwd", [ 10 + d ]) ())
  done;
  (* touch all four: only 2 stay resident, the rest were LRU-evicted *)
  for d = 1 to 4 do
    check_port "pre-change lookup" (Some (10 + d))
      (exec_compiled compiled (Int64.of_int d))
  done;
  (match Compile.tier_stats compiled with
   | [ s ] ->
     Alcotest.(check bool) "resident bounded by capacity" true
       (s.Compile.ts_resident <= 2);
     Alcotest.(check bool) "eviction pressure exercised" true
       (s.Compile.ts_evictions > 0)
   | _ -> Alcotest.fail "expected one tiered table");
  (* deletion: dst=2 was just looked up, so its winner is cache-warm *)
  Interp.remove_rules env "t" (fun r -> r.Ast.matches = [ Ast.P_exact 2L ]);
  check_port "deleted rule not served from stale cache" None
    (exec_compiled compiled 2L);
  (* priority update: a higher-priority rule over a cache-warm key *)
  check_port "warm the key" (Some 11) (exec_compiled compiled 1L);
  Interp.install_rule env "t"
    (rule ~priority:9 ~matches:[ exact_i 1 ] ~action:("fwd", [ 99 ]) ());
  check_port "priority update shadows the cached winner" (Some 99)
    (exec_compiled compiled 1L);
  (match Compile.tier_stats compiled with
   | [ s ] ->
     Alcotest.(check bool) "flushes counted as demotions" true
       (s.Compile.ts_demotions > s.Compile.ts_evictions)
   | _ -> Alcotest.fail "expected one tiered table")

(* -- Two-version swap: compiled path across freeze/thaw ------------------------ *)

let route_all_prog = Apps.L2l3.program ()

let test_device_swap_consistency () =
  (* device A runs the compiled path (Device.exec); device B is the
     interpreted reference over the same installs *)
  let mk () =
    let dev = Targets.Device.create ~id:"d" Targets.Arch.drmt in
    List.iteri
      (fun i el ->
        match Targets.Device.install dev ~ctx:route_all_prog ~order:i el with
        | Ok _ -> ()
        | Error r ->
          Alcotest.failf "install: %s" (Targets.Resource.reject_to_string r))
      route_all_prog.Ast.pipeline;
    Interp.install_rule (Targets.Device.env dev) "ipv4_lpm"
      (Apps.L2l3.route_rule ~host_id:2 ~port:4);
    dev
  in
  let dev_a = mk () and dev_b = mk () in
  let exec_a dst =
    let pkt = mk_pkt { with_vlan = false; with_ipv4 = true; l4 = 1;
                       src = 1; dst; sport = 10; dport = 20 } in
    Netsim.Packet.set_meta pkt "in_port" 0L;
    (Targets.Device.exec dev_a ~now_us:0L pkt).Interp.verdict.Interp.egress
  in
  let exec_b dst =
    let pkt = mk_pkt { with_vlan = false; with_ipv4 = true; l4 = 1;
                       src = 1; dst; sport = 10; dport = 20 } in
    Netsim.Packet.set_meta pkt "in_port" 0L;
    let env = Targets.Device.env dev_b in
    env.Interp.now_us <- 0L;
    (Interp.run env (Targets.Device.active_program dev_b) pkt)
      .Interp.verdict.Interp.egress
  in
  check_port "pre-swap engines agree" (exec_b 2) (exec_a 2);
  (* two-version swap on both: drop the ACL, change a route *)
  Targets.Device.freeze dev_a;
  Targets.Device.freeze dev_b;
  List.iter
    (fun dev ->
      check "uninstall acl" true (Targets.Device.uninstall dev "acl");
      Interp.remove_rules (Targets.Device.env dev) "ipv4_lpm" (fun _ -> true);
      Interp.install_rule (Targets.Device.env dev) "ipv4_lpm"
        (Apps.L2l3.route_rule ~host_id:2 ~port:8))
    [ dev_a; dev_b ];
  (* during the window: old program, new rules (rule changes are not
     frozen — they are data, not program) *)
  check "both frozen" true
    (Targets.Device.is_frozen dev_a && Targets.Device.is_frozen dev_b);
  check_port "mid-window engines agree" (exec_b 2) (exec_a 2);
  check_port "mid-window sees new rule" (Some 8) (exec_a 2);
  Targets.Device.thaw dev_a;
  Targets.Device.thaw dev_b;
  check_port "post-swap engines agree" (exec_b 2) (exec_a 2);
  check_port "post-swap routes via new rule" (Some 8) (exec_a 2);
  (* rule index still live on the new compiled program *)
  Interp.remove_rules (Targets.Device.env dev_a) "ipv4_lpm" (fun _ -> true);
  Interp.remove_rules (Targets.Device.env dev_b) "ipv4_lpm" (fun _ -> true);
  check_port "post-swap removal tracked" (exec_b 2) (exec_a 2)

let test_frozen_program_isolated () =
  (* during the window the compiled frozen program keeps executing even
     though the live pipeline changed *)
  let dev = Targets.Device.create ~id:"d" Targets.Arch.drmt in
  let ctx = program "ctx" [ fwd_table ] in
  (match Targets.Device.install dev ~ctx ~order:0 fwd_table with
   | Ok _ -> ()
   | Error r -> Alcotest.failf "install: %s" (Targets.Resource.reject_to_string r));
  Interp.install_rule (Targets.Device.env dev) "t"
    (rule ~matches:[ exact_i 2 ] ~action:("fwd", [ 7 ]) ());
  let exec dst =
    let pkt = mk_pkt { with_vlan = false; with_ipv4 = true; l4 = 1;
                       src = 1; dst; sport = 1; dport = 2 } in
    (Targets.Device.exec dev ~now_us:0L pkt).Interp.verdict.Interp.egress
  in
  check_port "live table forwards" (Some 7) (exec 2);
  Targets.Device.freeze dev;
  check "uninstall under freeze" true (Targets.Device.uninstall dev "t");
  check_port "frozen program still forwards" (Some 7) (exec 2);
  Targets.Device.thaw dev;
  check_port "after thaw the table is gone" None (exec 2)

(* -- Allocation gate ----------------------------------------------------------- *)

(* Minor-heap words per [Compile.run] after warm-up, exact in native
   code ([Gc.minor_words] counts this domain's allocation and does not
   allocate itself). The residual is 0 words everywhere: lookups, keys,
   map state and the device tier allocate nothing, expressions keep
   their values in the register file, the verdict and the result are
   the compiled program's own, a field write of a small value (l2l3's
   TTL) shares a prebuilt box, a run's first punt stores a list built
   at compile time, a device-tier miss with no paging runtime promotes
   in place, and a keyed-store removal (eviction, [Map_del]) builds no
   closure. The bytecode backend boxes differently, so only native
   runs are gated. *)
let words_per_run compiled pkts ~before =
  let n = 2000 in
  let go () =
    for i = 0 to n - 1 do
      let j = i mod Array.length pkts in
      before j;
      ignore (Compile.run compiled pkts.(j))
    done
  in
  go ();
  let w0 = Gc.minor_words () in
  go ();
  (Gc.minor_words () -. w0) /. float_of_int n

let gate name ~ceiling words =
  if Sys.backend_type = Sys.Native then
    check
      (Printf.sprintf "%s: %.2f words/run <= %d" name words ceiling)
      true
      (words <= float_of_int ceiling)

(* 64 packets, one per destination 1..64 *)
let gate_pkts () =
  Array.init 64 (fun i ->
      Netsim.Traffic.tcp_packet ~src:(100 + i) ~dst:(i + 1) ~sport:1024
        ~dport:80 ~born:0. ())

(* each packet's TTL cell, written in place between runs (l2l3
   decrements it; [Packet.set_field] would allocate) *)
let ttl_cells pkts =
  Array.map
    (fun p ->
      match Netsim.Packet.header p "ipv4" with
      | Some h -> List.assoc "ttl" h.Netsim.Packet.fields
      | None -> assert false)
    pkts

let test_allocation_gate () =
  let pkts = gate_pkts () in
  (* l2l3: /24 routes, no ACL or L2 rules *)
  let prog = Apps.L2l3.program () in
  let env = Interp.create_env prog in
  Interp.install_rule env "ipv4_lpm"
    (rule ~priority:1 ~matches:[ lpm_i 0 24 ] ~action:("route", [ 3 ]) ());
  let ttls = ttl_cells pkts in
  let compiled = Compile.compile env prog in
  gate "l2l3" ~ceiling:0
    (words_per_run compiled pkts ~before:(fun j -> ttls.(j) := 64L));
  (* no L2 rule: every packet is routed and punted once *)
  let r = Compile.run compiled pkts.(0) in
  Alcotest.(check (list string)) "l2l3 punts l2_miss" [ "l2_miss" ]
    r.Interp.verdict.Interp.punts;
  check_port "l2l3 routes" (Some 3) r.Interp.verdict.Interp.egress;
  (* count-min, depth 3 *)
  let prog = Apps.Cm_sketch.program () in
  gate "count-min" ~ceiling:0
    (words_per_run (Compile.compile (Interp.create_env prog) prog) pkts
       ~before:ignore);
  (* the same sketch on the other two encodings *)
  List.iter
    (fun enc ->
      let env = Interp.create_env ~default_encoding:enc prog in
      gate
        ("count-min on " ^ State.concrete_to_string enc)
        ~ceiling:0
        (words_per_run (Compile.compile env prog) pkts ~before:ignore))
    [ State.Registers; State.Flow_state ];
  (* an expression that reads a map *)
  let prog =
    program "rd"
      ~maps:[ map_decl ~key_arity:1 ~size:64 "m" ]
      [ block "b"
          [ map_incr "m" [ field "ipv4" "dst" ];
            when_ (map_get "m" [ field "ipv4" "dst" ] +: const 1 >: const 60)
              [ drop ] ] ]
  in
  gate "map read in an expression" ~ceiling:0
    (words_per_run (Compile.compile (Interp.create_env prog) prog) pkts
       ~before:ignore);
  (* exact forwarding, every destination installed *)
  let fwd_env () =
    let env = Interp.create_env (program "fwd" [ fwd_table ]) in
    for d = 1 to 64 do
      Interp.install_rule env "t"
        (rule ~matches:[ exact_i d ] ~action:("fwd", [ d ]) ())
    done;
    env
  in
  let prog = program "fwd" [ fwd_table ] in
  gate "flat exact table" ~ceiling:0
    (words_per_run (Compile.compile (fwd_env ()) prog) pkts ~before:ignore);
  (* the same table with a device tier that holds the working set:
     after warm-up every lookup is a device-tier hit *)
  let env = fwd_env () in
  Interp.set_tier_capacity env "t" 64;
  let compiled = Compile.compile env prog in
  gate "tiered table, device-tier hits" ~ceiling:0
    (words_per_run compiled pkts ~before:ignore);
  match Compile.tier_stats compiled with
  | [ s ] -> Alcotest.(check int) "warm-up took every miss" 64 s.Compile.ts_misses
  | _ -> Alcotest.fail "expected one tiered table"

let exact_fwd_env () =
  let env = Interp.create_env (program "fwd" [ fwd_table ]) in
  for d = 1 to 64 do
    Interp.install_rule env "t" (rule ~matches:[ exact_i d ] ~action:("fwd", [ d ]) ())
  done;
  env

(* A device tier of 16 under 64 destinations in a cycle: every lookup
   misses, is served by the host tier, and is promoted in place over an
   LRU eviction (no paging runtime, so no key copy and no commit
   closure). *)
let test_allocation_tier_misses () =
  let pkts = gate_pkts () in
  let env = exact_fwd_env () in
  Interp.set_tier_capacity env "t" 16;
  let prog = program "fwd" [ fwd_table ] in
  let compiled = Compile.compile env prog in
  gate "tiered table, misses and evictions" ~ceiling:0
    (words_per_run compiled pkts ~before:ignore);
  match Compile.tier_stats compiled with
  | [ s ] ->
    (* 4000 lookups; the 16 at the start of the measured pass hit,
       since 2000 mod 64 = 16 left exactly them resident *)
    Alcotest.(check int) "all other lookups missed" 3984 s.Compile.ts_misses;
    Alcotest.(check int) "every miss promoted" 3984 s.Compile.ts_promotions;
    Alcotest.(check int) "every promotion past the first 16 evicted" 3968
      s.Compile.ts_evictions
  | _ -> Alcotest.fail "expected one tiered table"

(* A per-packet insert and [Map_del] of the same key on each keyed
   encoding: the removal's backward shift builds no closure. *)
let test_allocation_map_del () =
  let pkts = gate_pkts () in
  let prog =
    program "del"
      ~maps:[ map_decl ~key_arity:1 ~size:64 "m" ]
      [ block "b"
          [ map_incr "m" [ field "ipv4" "dst" ]; map_del "m" [ field "ipv4" "dst" ] ] ]
  in
  List.iter
    (fun enc ->
      let env = Interp.create_env ~default_encoding:enc prog in
      gate
        ("map_del on " ^ State.concrete_to_string enc)
        ~ceiling:0
        (words_per_run (Compile.compile env prog) pkts ~before:ignore);
      Alcotest.(check int)
        ("map_del on " ^ State.concrete_to_string enc ^ " leaves it empty")
        0
        (State.size (Interp.env_map env "m")))
    [ State.Stateful_table; State.Flow_state; State.Registers ]

(* -- Result ownership ---------------------------------------------------------- *)

(* A run returns its compiled program's own verdict, valid until that
   program's next run: another device's run leaves it alone, and the
   old and new programs across a two-version window keep separate
   verdicts. *)
let test_result_ownership () =
  let ctx = program "ctx" [ fwd_table ] in
  let mk port =
    let dev = Targets.Device.create ~id:"d" Targets.Arch.drmt in
    (match Targets.Device.install dev ~ctx ~order:0 fwd_table with
     | Ok _ -> ()
     | Error r -> Alcotest.failf "install: %s" (Targets.Resource.reject_to_string r));
    Interp.install_rule (Targets.Device.env dev) "t"
      (rule ~matches:[ exact_i 2 ] ~action:("fwd", [ port ]) ());
    dev
  in
  let exec dev =
    Targets.Device.exec dev ~now_us:0L
      (Netsim.Traffic.tcp_packet ~src:1 ~dst:2 ~sport:1 ~dport:2 ~born:0. ())
  in
  let dev_a = mk 7 and dev_b = mk 9 in
  let ra = exec dev_a in
  let rb = exec dev_b in
  check "two devices, two verdicts" true (ra.Interp.verdict != rb.Interp.verdict);
  check_port "device a's result survives b's run" (Some 7)
    ra.Interp.verdict.Interp.egress;
  check_port "device b's result" (Some 9) rb.Interp.verdict.Interp.egress;
  (* a window that drops the table: the frozen program still forwards,
     the new one (staged at thaw) forwards nothing *)
  Targets.Device.freeze dev_a;
  check "uninstall under freeze" true (Targets.Device.uninstall dev_a "t");
  let old_r = exec dev_a in
  check_port "frozen program forwards" (Some 7) old_r.Interp.verdict.Interp.egress;
  Targets.Device.thaw dev_a;
  let new_r = exec dev_a in
  check "old and new programs, two verdicts" true
    (old_r.Interp.verdict != new_r.Interp.verdict);
  check_port "new program forwards nothing" None new_r.Interp.verdict.Interp.egress;
  check_port "the old program's result survives the new one's run" (Some 7)
    old_r.Interp.verdict.Interp.egress

let () =
  Alcotest.run "compile"
    [ ( "differential",
        [ to_alcotest prop_compiled_equals_interpreted;
          to_alcotest prop_tiered_equals_interpreted;
          to_alcotest prop_recompile_transparent;
          to_alcotest prop_patched_recompile_equals_fresh ] );
      ( "key_buffers",
        [ Alcotest.test_case "incr keyed by a get of the same map" `Quick
            test_incr_keyed_by_own_get ] );
      ( "allocation",
        [ Alcotest.test_case "words per run at the residual" `Quick
            test_allocation_gate;
          Alcotest.test_case "tier misses under eviction" `Quick
            test_allocation_tier_misses;
          Alcotest.test_case "per-packet map_del" `Quick test_allocation_map_del ] );
      ( "result_ownership",
        [ Alcotest.test_case "one verdict per compiled program" `Quick
            test_result_ownership ] );
      ( "install_validation",
        [ Alcotest.test_case "rule arity checked" `Quick
            test_install_arity_validated ] );
      ( "rule_index",
        [ Alcotest.test_case "hash index tracks rules" `Quick
            test_hash_index_tracks_rules;
          Alcotest.test_case "demotes to scan" `Quick test_index_demotes_to_scan;
          Alcotest.test_case "tier invalidated on rule change" `Quick
            test_tier_invalidated_on_rule_change ] );
      ( "two_version_swap",
        [ Alcotest.test_case "device swap consistency" `Quick
            test_device_swap_consistency;
          Alcotest.test_case "frozen program isolated" `Quick
            test_frozen_program_isolated ] ) ]
