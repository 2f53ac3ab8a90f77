(* Tests for the monotone dataflow framework (Dataflow): CFG
   well-formedness, solver determinism under worklist permutation,
   widening, the backward direction, and the two differential
   guarantees the re-hosted analyses make — the framework value-range
   pass reproduces the original recursive implementation diagnostic-
   for-diagnostic, and the unpruned WCET reproduces the planner
   heuristic [Analysis.max_cycles] exactly. *)

open Flexbpf

(* -- The reference value-range implementation ------------------------------- *)

(* The original syntax-directed value-range pass, with the interval
   evaluator it was written against, kept verbatim as the reference the
   framework-hosted [Verifier.value_range] is differentially tested
   against (same program -> byte-identical diagnostics). *)
module Reference = struct
  open Ast

  module SSet = Set.Make (String)
  module SMap = Map.Make (String)

  let field_width prog h f =
    match find_header prog h with
    | None -> 32
    | Some hd -> Option.value (List.assoc_opt f hd.hdr_fields) ~default:32

  (* Location paths: "element/stmt.1.then.0", "table/action/stmt.2",
     "table/key.0", "map/name". *)
  let stmt_path base i = Printf.sprintf "%s/stmt.%d" base i
  let sub_path base tag i = Printf.sprintf "%s.%s.%d" base tag i

  (* Signed int64 intervals with conservative (overflow -> top)
     arithmetic. [top] is the absence of information. *)
  type itv = { lo : int64; hi : int64 }

  let top = { lo = Int64.min_int; hi = Int64.max_int }
  let itv_const v = { lo = v; hi = v }
  let itv_bool = { lo = 0L; hi = 1L }
  let itv_hull a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

  let pow2m1 w =
    if w >= 63 then Int64.max_int else Int64.sub (Int64.shift_left 1L w) 1L

  (* smallest bit-width covering a non-negative value *)
  let bits_of v =
    let rec go w = if w >= 63 || pow2m1 w >= v then w else go (w + 1) in
    go 0

  let sadd a b =
    let r = Int64.add a b in
    if (a > 0L && b > 0L && r < a) || (a < 0L && b < 0L && r > a) then None
    else Some r

  let itv_add a b =
    match sadd a.lo b.lo, sadd a.hi b.hi with
    | Some lo, Some hi -> { lo; hi }
    | _ -> top

  let itv_neg a =
    if a.lo = Int64.min_int then top else { lo = Int64.neg a.hi; hi = Int64.neg a.lo }

  let itv_sub a b = itv_add a (itv_neg b)

  (* safe multiplication window: |v| <= 2^31 keeps pairwise products exact *)
  let mul_safe v = v >= -0x80000000L && v <= 0x80000000L

  let itv_mul a b =
    if mul_safe a.lo && mul_safe a.hi && mul_safe b.lo && mul_safe b.hi then begin
      let ps =
        [ Int64.mul a.lo b.lo; Int64.mul a.lo b.hi; Int64.mul a.hi b.lo;
          Int64.mul a.hi b.hi ]
      in
      { lo = List.fold_left min (List.hd ps) ps;
        hi = List.fold_left max (List.hd ps) ps }
    end
    else top

  (* interpreter semantics: x/0 = 0 and x%0 = 0 (eBPF-style totality) *)
  let itv_div a b =
    if b.lo = 0L && b.hi = 0L then itv_const 0L
    else if b.lo > 0L then begin
      let qs =
        [ Int64.div a.lo b.lo; Int64.div a.lo b.hi; Int64.div a.hi b.lo;
          Int64.div a.hi b.hi ]
      in
      { lo = List.fold_left min (List.hd qs) qs;
        hi = List.fold_left max (List.hd qs) qs }
    end
    else top

  let itv_mod a b =
    if b.lo = 0L && b.hi = 0L then itv_const 0L
    else if b.lo > 0L && b.hi < Int64.max_int then
      if a.lo >= 0L then { lo = 0L; hi = min a.hi (Int64.sub b.hi 1L) }
      else { lo = Int64.neg (Int64.sub b.hi 1L); hi = Int64.sub b.hi 1L }
    else top

  let itv_truthy a = a.lo > 0L || a.hi < 0L (* 0 not in range *)
  let itv_falsy a = a.lo = 0L && a.hi = 0L

  type rctx = {
    prog : program;
    mutable rout : Diagnostics.t list;
    mutable mute : bool;
        (* true while the fixpoint solver re-runs transfer functions;
           diagnostics are only emitted by the post-fixpoint report walk *)
  }

  let remit ctx ~code ~severity ~path fmt =
    Printf.ksprintf
      (fun message ->
        if not ctx.mute then
          ctx.rout <-
            { Diagnostics.code; pass = "value-range"; severity; path; message }
            :: ctx.rout)
      fmt

  (* key guaranteed outside [0,size) on a registers-encoded map: the
     read/write lands on an aliased slot with certainty *)
  let check_map_key ctx ~path m keys =
    match find_map ctx.prog m with
    | Some decl when decl.encoding = Enc_registers && decl.key_arity = 1 -> begin
        match keys with
        | [ k ] ->
          let size = Int64.of_int decl.map_size in
          if k.lo >= size || k.hi < 0L then
            remit ctx ~code:"FBV023" ~severity:Diagnostics.Warning ~path
              "key is always outside [0, %d) of registers-encoded map %s: \
               every access aliases through the hash"
              decl.map_size m
        | _ -> ()
      end
    | _ -> ()

  let rec reval ctx env ~path e =
    match e with
    | Const v -> itv_const v
    | Field (h, f) -> { lo = 0L; hi = pow2m1 (field_width ctx.prog h f) }
    | Meta m -> (match SMap.find_opt m env with Some i -> i | None -> top)
    | Param _ | Time -> { lo = 0L; hi = Int64.max_int }
    | Map_get (m, keys) ->
      let ks = List.map (reval ctx env ~path) keys in
      check_map_key ctx ~path m ks;
      top
    | Un (Not, e) ->
      let i = reval ctx env ~path e in
      if itv_truthy i then itv_const 0L
      else if itv_falsy i then itv_const 1L
      else itv_bool
    | Un (Neg, e) -> itv_neg (reval ctx env ~path e)
    | Un (Bnot, e) ->
      let i = reval ctx env ~path e in
      if i.lo = i.hi then itv_const (Int64.lognot i.lo) else top
    | Hash (Crc16, es) ->
      List.iter (fun e -> ignore (reval ctx env ~path e)) es;
      { lo = 0L; hi = 0xFFFFL }
    | Hash (Identity, [ e ]) -> reval ctx env ~path e
    | Hash (_, es) ->
      List.iter (fun e -> ignore (reval ctx env ~path e)) es;
      { lo = 0L; hi = 0x7FFFFFFFL }
    | Bin (op, a, b) ->
      let x = reval ctx env ~path a in
      let y = reval ctx env ~path b in
      (match op with
       | Add -> itv_add x y
       | Sub -> itv_sub x y
       | Mul -> itv_mul x y
       | Div ->
         if y.lo = 0L && y.hi = 0L then
           remit ctx ~code:"FBV022" ~severity:Diagnostics.Warning ~path
             "division by an expression that is always 0 (result is always 0)";
         itv_div x y
       | Mod ->
         if y.lo = 0L && y.hi = 0L then
           remit ctx ~code:"FBV022" ~severity:Diagnostics.Warning ~path
             "modulo by an expression that is always 0 (result is always 0)";
         itv_mod x y
       | Band ->
         if x.lo >= 0L && y.lo >= 0L then { lo = 0L; hi = min x.hi y.hi } else top
       | Bor | Bxor ->
         if x.lo >= 0L && y.lo >= 0L then
           { lo = 0L; hi = pow2m1 (max (bits_of x.hi) (bits_of y.hi)) }
         else top
       | Shl | Shr ->
         if y.lo >= 64L || y.hi < 0L then
           remit ctx ~code:"FBV021" ~severity:Diagnostics.Warning ~path
             "shift amount is always outside 0..63 (masked at runtime to %s \
              bits)"
             "6";
         (match op with
          | Shl ->
            if y.lo = y.hi && y.lo >= 0L && y.lo < 63L && x.lo >= 0L then begin
              let k = Int64.to_int y.lo in
              if x.hi <= pow2m1 (62 - k) then
                { lo = Int64.shift_left x.lo k; hi = Int64.shift_left x.hi k }
              else top
            end
            else top
          | _ ->
            if y.lo = y.hi && y.lo >= 0L && y.lo < 64L && x.lo >= 0L then begin
              let k = Int64.to_int y.lo in
              { lo = Int64.shift_right_logical x.lo k;
                hi = Int64.shift_right_logical x.hi k }
            end
            else if x.lo >= 0L then { lo = 0L; hi = x.hi }
            else top)
       | Eq ->
         if x.lo = x.hi && y.lo = y.hi && x.lo = y.lo then itv_const 1L
         else if x.hi < y.lo || y.hi < x.lo then itv_const 0L
         else itv_bool
       | Neq ->
         if x.lo = x.hi && y.lo = y.hi && x.lo = y.lo then itv_const 0L
         else if x.hi < y.lo || y.hi < x.lo then itv_const 1L
         else itv_bool
       | Lt ->
         if x.hi < y.lo then itv_const 1L
         else if x.lo >= y.hi then itv_const 0L
         else itv_bool
       | Le ->
         if x.hi <= y.lo then itv_const 1L
         else if x.lo > y.hi then itv_const 0L
         else itv_bool
       | Gt ->
         if x.lo > y.hi then itv_const 1L
         else if x.hi <= y.lo then itv_const 0L
         else itv_bool
       | Ge ->
         if x.lo >= y.hi then itv_const 1L
         else if x.hi < y.lo then itv_const 0L
         else itv_bool
       | Land ->
         if itv_falsy x || itv_falsy y then itv_const 0L
         else if itv_truthy x && itv_truthy y then itv_const 1L
         else itv_bool
       | Lor ->
         if itv_truthy x || itv_truthy y then itv_const 1L
         else if itv_falsy x && itv_falsy y then itv_const 0L
         else itv_bool)

  (* metas assigned anywhere in a statement list (for loop widening and
     table joins) *)
  let rec assigned_metas acc = function
    | [] -> acc
    | Set_meta (m, _) :: rest -> assigned_metas (SSet.add m acc) rest
    | If (_, th, el) :: rest ->
      assigned_metas (assigned_metas (assigned_metas acc th) el) rest
    | Loop (_, body) :: rest -> assigned_metas (assigned_metas acc body) rest
    | _ :: rest -> assigned_metas acc rest

  let env_join a b =
    SMap.merge
      (fun _ x y ->
        match x, y with Some x, Some y -> Some (itv_hull x y) | _ -> None)
      a b

  let value_range_reference prog =
    let ctx = { prog; rout = []; mute = false } in
    let rec eval_stmts env ~base ~iters stmts =
      List.fold_left
        (fun (env, i) s ->
          (eval_stmt env ~path:(stmt_path base i) ~iters s, i + 1))
        (env, 0) stmts
      |> fst
    and eval_branch env ~base ~tag ~iters stmts =
      List.fold_left
        (fun (env, i) s ->
          (eval_stmt env ~path:(sub_path base tag i) ~iters s, i + 1))
        (env, 0) stmts
      |> fst
    and eval_stmt env ~path ~iters = function
      | Nop | Drop | Punt _ | Push_header _ | Pop_header _ -> env
      | Set_meta (m, e) -> SMap.add m (reval ctx env ~path e) env
      | Set_field (h, f, e) ->
        let v = reval ctx env ~path e in
        let w = field_width prog h f in
        if w < 63 && (v.lo > pow2m1 w || v.hi < 0L) then
          remit ctx ~code:"FBV024" ~severity:Diagnostics.Warning ~path
            "value is always outside 0..%Ld and cannot fit the %d-bit field \
             %s.%s"
            (pow2m1 w) w h f;
        env
      | Map_put (m, keys, v) ->
        check_map_key ctx ~path m (List.map (reval ctx env ~path) keys);
        ignore (reval ctx env ~path v);
        env
      | Map_incr (m, keys, v) ->
        check_map_key ctx ~path m (List.map (reval ctx env ~path) keys);
        ignore (reval ctx env ~path v);
        env
      | Map_del (m, keys) ->
        check_map_key ctx ~path m (List.map (reval ctx env ~path) keys);
        env
      | Forward e | Call (_, [ e ]) ->
        ignore (reval ctx env ~path e);
        env
      | Call (_, args) ->
        List.iter (fun e -> ignore (reval ctx env ~path e)) args;
        env
      | If (c, th, el) ->
        let ci = reval ctx env ~path c in
        if itv_falsy ci && th <> [] then
          remit ctx ~code:"FBV020" ~severity:Diagnostics.Warning ~path
            "condition is always false: then-branch is never taken"
        else if itv_truthy ci then
          remit ctx ~code:"FBV020" ~severity:Diagnostics.Warning ~path
            (if el = [] then "condition is always true: the guard is redundant"
             else "condition is always true: else-branch is never taken");
        let env_t = eval_branch env ~base:path ~tag:"then" ~iters th in
        let env_e = eval_branch env ~base:path ~tag:"else" ~iters el in
        env_join env_t env_e
      | Loop (n, body) ->
        let total = iters * max 1 n in
        if iters > 1 && total > Typecheck.max_loop_bound then
          remit ctx ~code:"FBV025" ~severity:Diagnostics.Warning ~path
            "nested loops execute the body %d times, dwarfing the per-loop \
             ceiling of %d"
            total Typecheck.max_loop_bound;
        (* widen loop-carried metas to top, then analyze the body once *)
        let env =
          SSet.fold (fun m env -> SMap.remove m env) (assigned_metas SSet.empty body) env
        in
        let env = SMap.add "_loop_i" { lo = 0L; hi = Int64.of_int (max 0 (n - 1)) } env in
        eval_branch env ~base:path ~tag:"body" ~iters:total body
    in
    List.iter
      (fun el ->
        match el with
        | Block b -> ignore (eval_stmts SMap.empty ~base:b.blk_name ~iters:1 b.blk_body)
        | Table t ->
          List.iteri
            (fun i (e, _) ->
              ignore
                (reval ctx SMap.empty ~path:(Printf.sprintf "%s/key.%d" t.tbl_name i) e))
            t.keys;
          List.iter
            (fun a ->
              ignore
                (eval_stmts SMap.empty ~base:(t.tbl_name ^ "/" ^ a.act_name)
                   ~iters:1 a.body))
            t.tbl_actions)
      prog.pipeline;
    List.rev ctx.rout
end

open Flexbpf.Builder

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

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

(* -- Program generator (the surface exercised by the verifier props) ------ *)

let vmeta_gen =
  QCheck.Gen.(
    map (fun s -> "m" ^ s) (string_size ~gen:(char_range 'a' 'z') (int_range 1 4)))

let vexpr_gen =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then
          oneof
            [ map (fun v -> Ast.Const (Int64.of_int v)) (int_bound 1000);
              map (fun m -> Ast.Meta m) vmeta_gen;
              return (Ast.Field ("ipv4", "src"));
              return (Ast.Field ("tcp", "dport"));
              map (fun k -> Ast.Map_get ("m0", [ Ast.Const (Int64.of_int k) ]))
                (int_bound 63) ]
        else
          oneof
            [ map3
                (fun op a b -> Ast.Bin (op, a, b))
                (oneofl
                   [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod; Ast.Band;
                     Ast.Bor; Ast.Shl; Ast.Shr; Ast.Eq; Ast.Lt; Ast.Ge;
                     Ast.Land; Ast.Lor ])
                (self (n / 2)) (self (n / 2));
              map2
                (fun alg es -> Ast.Hash (alg, es))
                (oneofl [ Ast.Crc16; Ast.Crc32 ])
                (list_size (int_range 1 3) (self (n / 3))) ]))

let vstmt_gen =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [ return Ast.Nop; return Ast.Drop;
              map2 (fun m e -> Ast.Set_meta (m, e)) vmeta_gen vexpr_gen;
              map (fun e -> Ast.Set_field ("ipv4", "ttl", e)) vexpr_gen;
              map2 (fun k v -> Ast.Map_put ("m0", [ Ast.Const (Int64.of_int k) ],
                                            Ast.Const (Int64.of_int v)))
                (int_bound 63) (int_bound 100);
              map3 (fun a b v -> Ast.Map_incr ("m1",
                                               [ Ast.Const (Int64.of_int a);
                                                 Ast.Const (Int64.of_int b) ], v))
                (int_bound 30) (int_bound 30) vexpr_gen;
              map (fun k -> Ast.Map_del ("m0", [ Ast.Const (Int64.of_int k) ]))
                (int_bound 63);
              map (fun e -> Ast.Forward e) vexpr_gen;
              map (fun d -> Ast.Punt d) vmeta_gen ]
        in
        if n <= 0 then leaf
        else
          oneof
            [ leaf;
              map3
                (fun c th el -> Ast.If (c, th, el))
                vexpr_gen
                (list_size (int_bound 3) (self (n / 3)))
                (list_size (int_bound 2) (self (n / 3)));
              map2 (fun k body -> Ast.Loop (1 + k, body)) (int_bound 7)
                (list_size (int_range 1 3) (self (n / 3))) ]))

let vtable_gen =
  QCheck.Gen.(
    map2
      (fun kinds size ->
        Builder.table "t0"
          ~keys:(List.map (fun kind -> (Ast.Field ("ipv4", "dst"), kind)) kinds)
          ~actions:
            [ Builder.action "set_port" ~params:[ "p" ]
                [ Ast.Forward (Ast.Param "p") ];
              Builder.action "refuse" [ Ast.Drop ] ]
          ~default:("refuse", []) ~size ())
      (list_size (int_range 1 3)
         (oneofl [ Ast.Exact; Ast.Lpm; Ast.Ternary; Ast.Range ]))
      (int_range 1 512))

let vprogram_gen =
  QCheck.Gen.(
    map3
      (fun encodings blocks tbl ->
        let enc0, enc1 = encodings in
        Builder.program "pgen"
          ~maps:
            [ Builder.map_decl ~encoding:enc0 ~key_arity:1 ~size:64 "m0";
              Builder.map_decl ~encoding:enc1 ~key_arity:2 ~size:128 "m1" ]
          (List.mapi
             (fun i body -> Builder.block (Printf.sprintf "b%d" i) body)
             blocks
           @ [ tbl ]))
      (pair
         (oneofl
            [ Ast.Enc_auto; Ast.Enc_registers; Ast.Enc_flow_state;
              Ast.Enc_stateful_table ])
         (oneofl [ Ast.Enc_auto; Ast.Enc_registers ]))
      (list_size (int_range 1 3) (list_size (int_range 1 4) vstmt_gen))
      vtable_gen)

let vprogram_arb = QCheck.make ~print:Syntax.print vprogram_gen

(* -- CFG well-formedness --------------------------------------------------- *)

(* Node ids are topological over forward edges: every forward edge goes
   strictly up, every back edge strictly down (to the loop head). *)
let cfg_well_formed (cfg : Dataflow.Cfg.t) =
  let ok = ref true in
  Array.iteri
    (fun src succs -> List.iter (fun dst -> if dst <= src then ok := false) succs)
    cfg.Dataflow.Cfg.succs;
  Array.iteri
    (fun src succs -> List.iter (fun dst -> if dst > src then ok := false) succs)
    cfg.Dataflow.Cfg.back_succs;
  (* preds mirror succs *)
  Array.iteri
    (fun src succs ->
      List.iter
        (fun dst ->
          if not (List.mem src cfg.Dataflow.Cfg.preds.(dst)) then ok := false)
        succs)
    cfg.Dataflow.Cfg.succs;
  !ok

let test_cfg_shape () =
  List.iter
    (fun (name, p) ->
      List.iter
        (fun cfg ->
          check (name ^ "/" ^ cfg.Dataflow.Cfg.elem ^ " well-formed") true
            (cfg_well_formed cfg);
          check (name ^ " entry is node 0") true (cfg.Dataflow.Cfg.entry = 0);
          check (name ^ " exit is last node") true
            (cfg.Dataflow.Cfg.exit
             = Array.length cfg.Dataflow.Cfg.nodes - 1))
        (Dataflow.Cfg.of_program p))
    (builtin_apps ())

let prop_cfg_well_formed =
  QCheck.Test.make ~name:"generated CFGs are well-formed" ~count:150
    vprogram_arb
    (fun p -> List.for_all cfg_well_formed (Dataflow.Cfg.of_program p))

(* -- Solver determinism and termination ------------------------------------ *)

module FSolver = Dataflow.Solver (Dataflow.Shard_safety.Facts)

let shuffle st arr =
  let a = Array.copy arr in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The fixpoint is a property of the equations, not of the order the
   worklist drains: solving under a random initial permutation yields
   the same per-node states as the default order. *)
let prop_solver_order_independent =
  QCheck.Test.make ~name:"fixpoint independent of worklist order" ~count:100
    QCheck.(pair vprogram_arb (int_bound 1_000_000))
    (fun (p, seed) ->
      let st = Random.State.make [| seed |] in
      List.for_all
        (fun cfg ->
          let n = Array.length cfg.Dataflow.Cfg.nodes in
          let identity = Array.init n (fun i -> i) in
          let solve order =
            FSolver.forward ~order cfg ~init:Dataflow.Shard_safety.Facts.bottom
              ~transfer:Dataflow.Shard_safety.transfer
          in
          let a = solve identity and b = solve (shuffle st identity) in
          let eq x y =
            Array.for_all2 Dataflow.Shard_safety.Facts.equal x y
          in
          eq a.FSolver.input b.FSolver.input
          && eq a.FSolver.output b.FSolver.output)
        (Dataflow.Cfg.of_program p))

(* Termination on an infinite-ascent domain: the transfer bumps a
   counter at every visit, so only the widening budget stops it. *)
module Ascent = struct
  type t = int

  let top = max_int
  let bottom = 0
  let equal = Int.equal
  let join = max
  let widen _ _ = top
end

module ASolver = Dataflow.Solver (Ascent)

let test_widening_terminates () =
  let p =
    program "spin" [ block "b" [ loop 8 [ set_meta "x" (meta "x" +: const 1) ] ] ]
  in
  List.iter
    (fun cfg ->
      let sol =
        ASolver.forward cfg ~init:1 ~transfer:(fun node x ->
            if x = Ascent.bottom then x
            else
              match node.Dataflow.Cfg.kind with
              | Dataflow.Cfg.Loop_head _ ->
                if x >= Ascent.top then x else x + 1
              | _ -> x)
      in
      let widened =
        Array.exists (fun x -> x = Ascent.top) sol.ASolver.output
      in
      check "widening reached top and stabilized" true widened)
    (Dataflow.Cfg.of_program p)

let test_backward_direction () =
  (* constant-true propagation from the exit: every node that reaches
     the exit — in particular the entry — must be marked *)
  let p = Apps.Heavy_hitter.program () in
  List.iter
    (fun cfg ->
      let sol =
        ASolver.backward cfg ~init:1 ~transfer:(fun _ x -> x)
      in
      check "entry reaches exit" true
        (sol.ASolver.input.(cfg.Dataflow.Cfg.entry) = 1))
    (Dataflow.Cfg.of_program p)

(* -- Differential guarantees ----------------------------------------------- *)

(* The framework-hosted value-range pass reproduces the original
   recursive implementation finding-for-finding, in emission order. *)
let diag_eq a b =
  List.length a = List.length b && List.for_all2 ( = ) a b

let prop_value_range_differential =
  QCheck.Test.make ~name:"value-range re-host = reference" ~count:200
    vprogram_arb
    (fun p ->
      diag_eq (Verifier.value_range p) (Reference.value_range_reference p))

let test_value_range_on_apps () =
  List.iter
    (fun (name, p) ->
      check (name ^ " value-range unchanged") true
        (diag_eq (Verifier.value_range p) (Reference.value_range_reference p)))
    (builtin_apps ())

(* The unpruned WCET is the planner heuristic, exactly. *)
let prop_heuristic_reproduced =
  QCheck.Test.make ~name:"unpruned WCET = Analysis.max_cycles" ~count:200
    vprogram_arb
    (fun p ->
      let c = Dataflow.Cost.analyze p in
      c.Dataflow.Cost.cc_heuristic = Analysis.max_cycles p
      && c.Dataflow.Cost.cc_certified <= c.Dataflow.Cost.cc_heuristic
      && c.Dataflow.Cost.cc_certified >= 0)

(* Pruning only ever fires on branches whose condition constant-folds,
   and when nothing folds the certificate equals the heuristic. *)
let prop_no_fold_no_prune =
  QCheck.Test.make ~name:"certificate = heuristic without dead branches"
    ~count:200 vprogram_arb
    (fun p ->
      let c = Dataflow.Cost.analyze p in
      c.Dataflow.Cost.cc_pruned <> []
      || c.Dataflow.Cost.cc_certified = c.Dataflow.Cost.cc_heuristic)

(* -- Shard-safety classification ------------------------------------------- *)

let test_classification_units () =
  let verdict p =
    (Dataflow.Shard_safety.analyze p).Dataflow.Shard_safety.ps_verdict
  in
  let reader =
    program "r" ~maps:[ map_decl ~size:8 "m" ]
      [ block "b" [ set_meta "x" (map_get "m" [ const 0 ]) ] ]
  in
  check "pure reader is read-only" true
    (verdict reader = Dataflow.Shard_safety.Read_only);
  let counter =
    program "c" ~maps:[ map_decl ~size:8 "m" ]
      [ block "b" [ map_incr "m" [ const 0 ] ] ]
  in
  check "increment-only is commutative" true
    (verdict counter = Dataflow.Shard_safety.Commutative);
  let putter =
    program "p" ~maps:[ map_decl ~size:8 "m" ]
      [ block "b" [ map_put "m" [ const 0 ] (const 1) ] ]
  in
  check "put is exclusive" true
    (verdict putter = Dataflow.Shard_safety.Exclusive);
  let rmw =
    program "w" ~maps:[ map_decl ~size:8 "m" ]
      [ block "b"
          [ map_put "m" [ const 0 ] (map_get "m" [ const 0 ] +: const 1) ] ]
  in
  let rep = Dataflow.Shard_safety.analyze rmw in
  check "rmw is exclusive" true
    (rep.Dataflow.Shard_safety.ps_verdict = Dataflow.Shard_safety.Exclusive);
  check "rmw site marked" true
    (List.exists
       (fun mr ->
         List.exists
           (fun s -> s.Dataflow.Shard_safety.s_rmw)
           mr.Dataflow.Shard_safety.mr_sites)
       rep.Dataflow.Shard_safety.ps_maps);
  check "untouched program is read-only" true
    (verdict (program "n" [ block "b" [ Ast.Nop ] ])
     = Dataflow.Shard_safety.Read_only)

let prop_verdict_is_worst_class =
  QCheck.Test.make ~name:"program verdict = worst per-map class" ~count:150
    vprogram_arb
    (fun p ->
      let rep = Dataflow.Shard_safety.analyze p in
      let worst =
        List.fold_left
          (fun acc mr ->
            if
              Dataflow.Shard_safety.class_rank mr.Dataflow.Shard_safety.mr_class
              > Dataflow.Shard_safety.class_rank acc
            then mr.Dataflow.Shard_safety.mr_class
            else acc)
          Dataflow.Shard_safety.Read_only rep.Dataflow.Shard_safety.ps_maps
      in
      rep.Dataflow.Shard_safety.ps_verdict = worst)

(* -- Certificates across shipped programs ---------------------------------- *)

let test_certify_attaches_certificates () =
  List.iter
    (fun (name, p) ->
      match Analysis.certify p with
      | Error e -> Alcotest.failf "%s: %a" name Analysis.pp_rejection e
      | Ok cert ->
        check_int
          (name ^ " certificate heuristic = max_cycles")
          (Analysis.max_cycles p)
          cert.Analysis.cert_cost.Dataflow.Cost.cc_heuristic;
        check (name ^ " parallel certificate covers declared maps") true
          (List.length
             cert.Analysis.cert_parallel.Dataflow.Shard_safety.ps_maps
           >= List.length p.Ast.maps))
    (builtin_apps ())

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "dataflow"
    [
      ("cfg",
       [ Alcotest.test_case "builtin apps" `Quick test_cfg_shape;
         q prop_cfg_well_formed ]);
      ("solver",
       [ q prop_solver_order_independent;
         Alcotest.test_case "widening terminates" `Quick
           test_widening_terminates;
         Alcotest.test_case "backward direction" `Quick test_backward_direction ]);
      ("value-range differential",
       [ q prop_value_range_differential;
         Alcotest.test_case "builtin apps" `Quick test_value_range_on_apps ]);
      ("cost",
       [ q prop_heuristic_reproduced; q prop_no_fold_no_prune ]);
      ("shard-safety",
       [ Alcotest.test_case "classification" `Quick test_classification_units;
         q prop_verdict_is_worst_class ]);
      ("certificates",
       [ Alcotest.test_case "shipped apps" `Quick
           test_certify_attaches_certificates ]);
    ]
