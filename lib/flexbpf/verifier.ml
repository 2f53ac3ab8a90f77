(** The FlexBPF verifier: dataflow safety analysis for runtime-injected
    programs (§2, §3.1).

    The paper's safety argument is that runtime injection is only
    acceptable if the network can *prove* a program safe before it goes
    live. [Typecheck] establishes well-formedness and [Analysis]
    bounded execution; this module adds the eBPF-verifier-style
    semantic passes in between:

    - {b uninit-read}: header fields and metadata slots read before the
      parser or any prior statement could have defined them, tracked as
      a may-analysis through [If] joins (union — a read is flagged only
      when {e no} path defines it).
    - {b dead-code}: statements after an unconditional [Drop], elements
      the verdict can no longer depend on, actions no rule or default
      can reach, and maps the pipeline never touches.
    - {b value-range}: interval abstract interpretation over integer
      expressions — constant conditions, out-of-range keys on
      registers-encoded maps, shift/width overflows, and nested loop
      budgets that dwarf [Typecheck.max_loop_bound].
    - {b migration-safety}: per-packet-mutated maps pinned to a lossy
      concrete encoding ([Registers] aliasing, [Flow_state] overflow)
      cannot be moved faithfully by [Runtime.Migration.freeze_copy]
      (§3.4).
    - {b tenant-isolation}: [Compose.check_access] violations and
      un-guarded tenant elements reported as diagnostics instead of
      hard admission errors.

    All passes assume a well-formed program (run [Typecheck] first, or
    use [check] which does); they never raise on well-formed input and
    return diagnostics in a deterministic order. *)

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

(* -- Pass 1: uninitialized reads ------------------------------------- *)

(* Metadata stamped by the runtime before any program statement runs:
   [Runtime.Wiring] sets the ingress port and VLAN id on every packet
   entering a device. *)
let runtime_metas = SSet.of_list [ "in_port"; "vlan_vid" ]

type ustate = { metas : SSet.t; present : SSet.t }

let ujoin a b =
  { metas = SSet.union a.metas b.metas;
    present = SSet.union a.present b.present }

let uninit_read prog =
  let out = ref [] in
  (* one report per (code, element, name): the first uninitialized read
     of a slot is the actionable one; cascades repeat it. *)
  let reported = Hashtbl.create 16 in
  let report ~code ~severity ~elem ~name ~path fmt =
    Printf.ksprintf
      (fun message ->
        if not (Hashtbl.mem reported (code, elem, name)) then begin
          Hashtbl.replace reported (code, elem, name) ();
          out :=
            { Diagnostics.code; pass = "uninit-read"; severity; path; message }
            :: !out
        end)
      fmt
  in
  let rec exam_expr st ~elem ~path e =
    match e with
    | Const _ | Param _ | Time -> st
    | Field (h, f) ->
      if SSet.mem h st.present then st
      else begin
        report ~code:"FBV001" ~severity:Diagnostics.Error ~elem ~name:h ~path
          "read of %s.%s: no parser rule or prior statement can have \
           produced header %s here"
          h f h;
        { st with present = SSet.add h st.present }
      end
    | Meta m ->
      if SSet.mem m st.metas then st
      else begin
        report ~code:"FBV002" ~severity:Diagnostics.Warning ~elem ~name:m ~path
          "metadata %s read before any assignment (defaults to 0)" m;
        { st with metas = SSet.add m st.metas }
      end
    | Map_get (_, keys) -> List.fold_left (fun st k -> exam_expr st ~elem ~path k) st keys
    | Bin (_, a, b) -> exam_expr (exam_expr st ~elem ~path a) ~elem ~path b
    | Un (_, e) -> exam_expr st ~elem ~path e
    | Hash (_, es) -> List.fold_left (fun st e -> exam_expr st ~elem ~path e) st es
  in
  let rec exam_stmts st ~elem ~base stmts =
    List.fold_left
      (fun (st, i) s -> (exam_stmt st ~elem ~path:(stmt_path base i) s, i + 1))
      (st, 0) stmts
    |> fst
  and exam_stmt st ~elem ~path = function
    | Nop | Drop | Punt _ -> st
    | Set_field (h, f, e) ->
      let st = exam_expr st ~elem ~path e in
      if SSet.mem h st.present then st
      else begin
        report ~code:"FBV001" ~severity:Diagnostics.Error ~elem ~name:h ~path
          "write to %s.%s: no parser rule or prior statement can have \
           produced header %s here"
          h f h;
        { st with present = SSet.add h st.present }
      end
    | Set_meta (m, e) ->
      let st = exam_expr st ~elem ~path e in
      { st with metas = SSet.add m st.metas }
    | Map_put (_, keys, v) | Map_incr (_, keys, v) ->
      let st = List.fold_left (fun st k -> exam_expr st ~elem ~path k) st keys in
      exam_expr st ~elem ~path v
    | Map_del (_, keys) ->
      List.fold_left (fun st k -> exam_expr st ~elem ~path k) st keys
    | If (c, th, el) ->
      let st = exam_expr st ~elem ~path c in
      let st_t = exam_branch st ~elem ~base:path ~tag:"then" th in
      let st_e = exam_branch st ~elem ~base:path ~tag:"else" el in
      ujoin st_t st_e
    | Loop (_, body) ->
      let st = { st with metas = SSet.add "_loop_i" st.metas } in
      exam_branch st ~elem ~base:path ~tag:"body" body
    | Forward e -> exam_expr st ~elem ~path e
    | Push_header h -> { st with present = SSet.add h st.present }
    | Pop_header h -> { st with present = SSet.remove h st.present }
    | Call (svc, args) ->
      let st = List.fold_left (fun st a -> exam_expr st ~elem ~path a) st args in
      { st with metas = SSet.add ("drpc_" ^ svc) st.metas }
  and exam_branch st ~elem ~base ~tag stmts =
    List.fold_left
      (fun (st, i) s -> (exam_stmt st ~elem ~path:(sub_path base tag i) s, i + 1))
      (st, 0) stmts
    |> fst
  in
  let init =
    { metas = runtime_metas;
      present =
        List.fold_left
          (fun acc r -> List.fold_left (fun acc h -> SSet.add h acc) acc r.pr_headers)
          SSet.empty prog.parser }
  in
  let exam_element st el =
    let elem = element_name el in
    match el with
    | Block b -> exam_stmts st ~elem ~base:elem b.blk_body
    | Table t ->
      let st =
        List.fold_left
          (fun (st, i) (e, _) ->
            (exam_expr st ~elem ~path:(Printf.sprintf "%s/key.%d" elem i) e, i + 1))
          (st, 0) t.keys
        |> fst
      in
      (* which action runs depends on installed rules: any of them may
         have executed, so the post-state is the union (may-defined). *)
      List.fold_left
        (fun acc a -> ujoin acc (exam_stmts st ~elem ~base:(elem ^ "/" ^ a.act_name) a.body))
        st t.tbl_actions
  in
  ignore (List.fold_left exam_element init prog.pipeline);
  List.rev !out

(* -- Pass 2: dead code ------------------------------------------------ *)

let rec always_drops stmts = List.exists stmt_always_drops stmts

and stmt_always_drops = function
  | Drop -> true
  | If (c, th, el) -> (
    (* a constant guard takes exactly one arm: [if (1 == 1) { drop }]
       drops every packet even though its (empty) else-arm does not *)
    match Dataflow.const_truth c with
    | Some true -> always_drops th
    | Some false -> always_drops el
    | None -> always_drops th && always_drops el)
  | Loop (n, body) -> n > 0 && always_drops body
  | _ -> false

let element_always_drops = function
  | Block b -> always_drops b.blk_body
  | Table t ->
    (* every action (and thus whatever rule or default selects) drops *)
    t.tbl_actions <> [] && List.for_all (fun a -> always_drops a.body) t.tbl_actions

let dead_code prog =
  let out = ref [] in
  let emit ~code ~severity ~path fmt =
    Printf.ksprintf
      (fun message ->
        out :=
          { Diagnostics.code; pass = "dead-code"; severity; path; message }
          :: !out)
      fmt
  in
  (* statements after an unconditional drop at the same nesting level *)
  let rec scan_stmts ~base stmts =
    let rec go i seen_drop = function
      | [] -> ()
      | s :: rest ->
        let path = stmt_path base i in
        if seen_drop then
          emit ~code:"FBV010" ~severity:Diagnostics.Warning ~path
            "statement follows an unconditional drop: the verdict can no \
             longer change"
        else begin
          (match s with
           | If (_, th, el) ->
             scan_branch ~base:path ~tag:"then" th;
             scan_branch ~base:path ~tag:"else" el
           | Loop (_, body) -> scan_branch ~base:path ~tag:"body" body
           | _ -> ())
        end;
        go (i + 1) (seen_drop || stmt_always_drops s) rest
    in
    go 0 false stmts
  and scan_branch ~base ~tag stmts =
    let rec go i seen_drop = function
      | [] -> ()
      | s :: rest ->
        let path = sub_path base tag i in
        if seen_drop then
          emit ~code:"FBV010" ~severity:Diagnostics.Warning ~path
            "statement follows an unconditional drop: the verdict can no \
             longer change"
        else begin
          (match s with
           | If (_, th, el) ->
             scan_branch ~base:path ~tag:"then" th;
             scan_branch ~base:path ~tag:"else" el
           | Loop (_, body) -> scan_branch ~base:path ~tag:"body" body
           | _ -> ())
        end;
        go (i + 1) (seen_drop || stmt_always_drops s) rest
    in
    go 0 false stmts
  in
  List.iter
    (fun el ->
      match el with
      | Block b -> scan_stmts ~base:b.blk_name b.blk_body
      | Table t ->
        List.iter
          (fun a -> scan_stmts ~base:(t.tbl_name ^ "/" ^ a.act_name) a.body)
          t.tbl_actions)
    prog.pipeline;
  (* elements after a drop-everything element: the verdict is settled *)
  ignore
    (List.fold_left
       (fun dropped el ->
         if dropped then
           emit ~code:"FBV011" ~severity:Diagnostics.Warning
             ~path:(element_name el)
             "element is unreachable in effect: an earlier element drops \
              every packet";
         dropped || element_always_drops el)
       false prog.pipeline);
  (* actions no rule or default can reach yet *)
  List.iter
    (function
      | Block _ -> ()
      | Table t ->
        let default_name = fst t.default_action in
        List.iter
          (fun a ->
            if a.act_name <> default_name && a.act_name <> "nop" then
              emit ~code:"FBV012" ~severity:Diagnostics.Info
                ~path:(t.tbl_name ^ "/" ^ a.act_name)
                "action %s is not the default and is unreachable until a \
                 rule referencing it is installed"
                a.act_name)
          t.tbl_actions)
    prog.pipeline;
  (* map liveness: reads and writes across the whole pipeline *)
  let reads = ref SSet.empty and writes = ref SSet.empty in
  let rec expr_uses = function
    | Map_get (m, keys) ->
      reads := SSet.add m !reads;
      List.iter expr_uses keys
    | Bin (_, a, b) -> expr_uses a; expr_uses b
    | Un (_, e) -> expr_uses e
    | Hash (_, es) -> List.iter expr_uses es
    | Const _ | Field _ | Meta _ | Param _ | Time -> ()
  in
  let rec stmt_uses = function
    | Map_put (m, keys, v) | Map_incr (m, keys, v) ->
      writes := SSet.add m !writes;
      List.iter expr_uses keys;
      expr_uses v
    | Map_del (m, keys) ->
      writes := SSet.add m !writes;
      List.iter expr_uses keys
    | If (c, th, el) -> expr_uses c; List.iter stmt_uses th; List.iter stmt_uses el
    | Loop (_, body) -> List.iter stmt_uses body
    | Set_field (_, _, e) | Set_meta (_, e) | Forward e -> expr_uses e
    | Call (_, args) -> List.iter expr_uses args
    | Nop | Drop | Punt _ | Push_header _ | Pop_header _ -> ()
  in
  List.iter
    (function
      | Block b -> List.iter stmt_uses b.blk_body
      | Table t ->
        List.iter (fun (e, _) -> expr_uses e) t.keys;
        List.iter (fun a -> List.iter stmt_uses a.body) t.tbl_actions)
    prog.pipeline;
  List.iter
    (fun (m : map_decl) ->
      let r = SSet.mem m.map_name !reads and w = SSet.mem m.map_name !writes in
      let path = "map/" ^ m.map_name in
      if (not r) && not w then
        emit ~code:"FBV013" ~severity:Diagnostics.Warning ~path
          "map %s is never read or written by the pipeline" m.map_name
      else if w && not r then
        emit ~code:"FBV014" ~severity:Diagnostics.Info ~path
          "map %s is write-only in the data plane (visible only to the \
           control plane)"
          m.map_name
      else if r && not w then
        emit ~code:"FBV015" ~severity:Diagnostics.Info ~path
          "map %s is never written by the pipeline (reads see control-plane \
           state or 0)"
          m.map_name)
    prog.maps;
  List.rev !out

(* -- Pass 3: value-range analysis ------------------------------------- *)

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

(* -- Pass 3, re-hosted on the dataflow framework ----------------------- *)

(* The interval environment as an abstract domain. A missing key means
   top, so the join intersects keys ([env_join]); [Bot] is the explicit
   bottom the solver needs for not-yet-reached nodes. *)
module VR_domain = struct
  type t = Bot | Env of itv SMap.t

  let bottom = Bot

  let equal a b =
    match a, b with
    | Bot, Bot -> true
    | Env x, Env y -> SMap.equal (fun a b -> a.lo = b.lo && a.hi = b.hi) x y
    | _ -> false

  let join a b =
    match a, b with
    | Bot, x | x, Bot -> x
    | Env x, Env y -> Env (env_join x y)

  let widen = join (* the loop-head transfer is already idempotent *)
end

module VR_solver = Dataflow.Solver (VR_domain)

(* One node's transfer function. Runs twice per node: muted during the
   fixpoint, un-muted during the report walk — the emission logic is
   identical to the original syntax-directed implementation's, which
   test/test_dataflow.ml keeps as its differential reference. *)
let vr_transfer ctx (node : Dataflow.Cfg.node) env =
  let path = node.Dataflow.Cfg.path in
  match node.Dataflow.Cfg.kind with
  | Dataflow.Cfg.Entry | Dataflow.Cfg.Exit | Dataflow.Cfg.Join
  | Dataflow.Cfg.Loop_exit | Dataflow.Cfg.Action_select
  | Dataflow.Cfg.Action_entry _ -> env
  | Dataflow.Cfg.Key (e, _) ->
    ignore (reval ctx env ~path e);
    env
  | Dataflow.Cfg.Branch b ->
    let th, el =
      match b.Dataflow.Cfg.br_stmt with
      | If (_, th, el) -> (th, el)
      | _ -> ([], [])
    in
    let ci = reval ctx env ~path b.Dataflow.Cfg.cond in
    if itv_falsy ci && th <> [] then
      remit ctx ~code:"FBV020" ~severity:Diagnostics.Warning ~path
        "condition is always false: then-branch is never taken"
    else if itv_truthy ci then
      remit ctx ~code:"FBV020" ~severity:Diagnostics.Warning ~path
        (if el = [] then "condition is always true: the guard is redundant"
         else "condition is always true: else-branch is never taken");
    env
  | Dataflow.Cfg.Loop_head (n, s) ->
    let body = match s with Loop (_, body) -> body | _ -> [] in
    let iters = node.Dataflow.Cfg.vr_iters in
    let total = iters * max 1 n in
    if iters > 1 && total > Typecheck.max_loop_bound then
      remit ctx ~code:"FBV025" ~severity:Diagnostics.Warning ~path
        "nested loops execute the body %d times, dwarfing the per-loop \
         ceiling of %d"
        total Typecheck.max_loop_bound;
    (* widen loop-carried metas to top, bound the iteration counter *)
    let env =
      SSet.fold (fun m env -> SMap.remove m env)
        (assigned_metas SSet.empty body) env
    in
    SMap.add "_loop_i" { lo = 0L; hi = Int64.of_int (max 0 (n - 1)) } env
  | Dataflow.Cfg.Atom s -> (
    match s with
    | Nop | Drop | Punt _ | Push_header _ | Pop_header _ -> env
    | Set_meta (m, e) -> SMap.add m (reval ctx env ~path e) env
    | Set_field (h, f, e) ->
      let v = reval ctx env ~path e in
      let w = field_width ctx.prog h f in
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
    | If _ | Loop _ -> env (* control flow lives on Branch/Loop_head *))

let vr_node ctx node = function
  | VR_domain.Bot -> VR_domain.Bot
  | VR_domain.Env env -> VR_domain.Env (vr_transfer ctx node env)

let value_range prog =
  let ctx = { prog; rout = []; mute = true } in
  List.iter
    (fun cfg ->
      let sol =
        VR_solver.forward cfg ~init:(VR_domain.Env SMap.empty)
          ~transfer:(vr_node ctx)
      in
      (* report on the fixpoint, one visit per node in program order *)
      ctx.mute <- false;
      Array.iter
        (fun (node : Dataflow.Cfg.node) ->
          ignore (vr_node ctx node sol.VR_solver.input.(node.Dataflow.Cfg.id)))
        cfg.Dataflow.Cfg.nodes;
      ctx.mute <- true)
    (Dataflow.Cfg.of_program prog);
  List.rev ctx.rout

(* -- Pass 4: migration safety ------------------------------------------ *)

let migration_safety prog =
  let mutated = ref SSet.empty in
  let rec stmt_mutates = function
    | Map_put (m, _, _) | Map_incr (m, _, _) | Map_del (m, _) ->
      mutated := SSet.add m !mutated
    | If (_, th, el) -> List.iter stmt_mutates th; List.iter stmt_mutates el
    | Loop (_, body) -> List.iter stmt_mutates body
    | _ -> ()
  in
  List.iter
    (function
      | Block b -> List.iter stmt_mutates b.blk_body
      | Table t -> List.iter (fun a -> List.iter stmt_mutates a.body) t.tbl_actions)
    prog.pipeline;
  List.filter_map
    (fun (m : map_decl) ->
      if not (SSet.mem m.map_name !mutated) then None
      else
        let path = "map/" ^ m.map_name in
        match m.encoding with
        | Enc_registers ->
          Some
            (Diagnostics.v ~code:"FBV030" ~pass:"migration-safety"
               ~severity:Diagnostics.Warning ~path
               "per-packet-mutated map %s is pinned to the registers \
                encoding: key aliasing makes freeze-copy migration lossy \
                (\xc2\xa73.4)"
               m.map_name)
        | Enc_flow_state ->
          Some
            (Diagnostics.v ~code:"FBV031" ~pass:"migration-safety"
               ~severity:Diagnostics.Warning ~path
               "per-packet-mutated map %s is pinned to the flow-state \
                encoding: inserts are dropped when full, so freeze-copy \
                migration may lose updates (\xc2\xa73.4)"
               m.map_name)
        | Enc_auto | Enc_stateful_table -> None)
    prog.maps

(* -- Pass 5: tenant isolation ------------------------------------------ *)

let is_vlan_guarded = function
  | Block { blk_body = [ If (Bin (Eq, Meta "vlan_vid", Const _), _, []) ]; _ } ->
    true
  | Block _ -> false
  | Table _ -> true (* tables are guarded at rule-install time *)

let tenant_isolation prog =
  if prog.owner = "infra" then []
  else begin
    let ns = Compose.namespace prog in
    let access =
      List.map
        (fun v ->
          match v with
          | Compose.Touches_foreign_map (el, m) ->
            Diagnostics.v ~code:"FBV040" ~pass:"tenant-isolation"
              ~severity:Diagnostics.Warning ~path:el
              "element touches foreign map %s: admission will reject this"
              m
          | Compose.Name_collision n ->
            Diagnostics.v ~code:"FBV040" ~pass:"tenant-isolation"
              ~severity:Diagnostics.Warning ~path:n "name collision on %s" n
          | Compose.Unauthorized_drop el ->
            Diagnostics.v ~code:"FBV040" ~pass:"tenant-isolation"
              ~severity:Diagnostics.Warning ~path:el
              "element drops traffic outside its VLAN guard")
        (Compose.check_access ns)
    in
    let unguarded =
      List.filter_map
        (fun el ->
          if is_vlan_guarded el then None
          else
            Some
              (Diagnostics.v ~code:"FBV041" ~pass:"tenant-isolation"
                 ~severity:Diagnostics.Info ~path:(element_name el)
                 "tenant element is not VLAN-guarded: %s will wrap it at \
                  admission (owner %s)"
                 "Compose.guard_element" prog.owner))
        prog.pipeline
    in
    access @ unguarded
  end

(* -- Pass 6: shard-safety ---------------------------------------------- *)

(* Classify every map's datapath access pattern for the domain-sharded
   datapath (ROADMAP item 1) and Reconfig's two-version swap: reads
   replicate freely, increments merge by sum, puts/deletes need an
   owner shard, and read-modify-write races outright. Severity of the
   race is owner-sensitive: infra programs may pin a map to one shard,
   tenant extensions get sharded and must not carry the idiom. *)
let shard_safety prog =
  let open Dataflow.Shard_safety in
  let ps = analyze prog in
  let infra = prog.owner = "infra" in
  List.concat_map
    (fun mr ->
      let path = "map/" ^ mr.mr_map in
      let has p = List.exists p mr.mr_sites in
      let rmw_diags =
        List.filter_map
          (fun s ->
            if not s.s_rmw then None
            else
              Some
                (Diagnostics.v ~code:"FBV052" ~pass:"shard-safety"
                   ~severity:
                     (if infra then Diagnostics.Warning else Diagnostics.Error)
                   ~path:s.s_path
                   "read-modify-write on map %s: the written value derives \
                    from a read of the same map and races across shards \
                    (infra may pin the map to one shard; tenant extensions \
                    must use commutative '+=' updates)"
                   mr.mr_map))
          mr.mr_sites
      in
      rmw_diags
      @
      match mr.mr_class with
      | Read_only -> []
      | Commutative ->
        Diagnostics.v ~code:"FBV050" ~pass:"shard-safety"
          ~severity:Diagnostics.Info ~path
          "map %s is shard-commutative: every datapath write is an \
           increment, so per-shard replicas merge by sum"
          mr.mr_map
        :: (if has (fun s -> s.s_access = Read) then
              [ Diagnostics.v ~code:"FBV053" ~pass:"shard-safety"
                  ~severity:Diagnostics.Info ~path
                  "shard-commutative map %s is also read on the datapath: \
                   each shard observes its partial counts until merge"
                  mr.mr_map ]
            else [])
      | Exclusive ->
        let writes =
          List.filter
            (fun s -> s.s_rmw || s.s_access = Put || s.s_access = Del)
            mr.mr_sites
        in
        Diagnostics.v ~code:"FBV051" ~pass:"shard-safety"
          ~severity:Diagnostics.Warning ~path
          "map %s needs an exclusive owner shard: %d write site(s) carry \
           last-writer-wins state that cannot be merged across shards"
          mr.mr_map (List.length writes)
        :: (if
              has (fun s -> s.s_access = Incr)
              && has (fun s -> s.s_access = Put || s.s_access = Del)
            then
              [ Diagnostics.v ~code:"FBV054" ~pass:"shard-safety"
                  ~severity:Diagnostics.Warning ~path
                  "map %s mixes increments with put/delete writes: summed \
                   and last-writer-wins state cannot be merged consistently"
                  mr.mr_map ]
            else []))
    ps.ps_maps

(* -- Pass 7: static cost ----------------------------------------------- *)

(* WCET-style certificate checks: where the certified worst case and
   the planner's syntax-directed heuristic diverge, and where the cost
   concentrates. *)
let static_cost prog =
  let c = Dataflow.Cost.analyze prog in
  let divergence =
    List.filter_map
      (fun (elem, cert, heur) ->
        if cert > 0 && heur >= 2 * cert then
          Some
            (Diagnostics.v ~code:"FBV061" ~pass:"static-cost"
               ~severity:Diagnostics.Warning ~path:elem
               "planner heuristic charges %d work units but the certified \
                worst case is %d: statically dead branches inflate the \
                placement cost model"
               heur cert)
        else None)
      c.Dataflow.Cost.cc_elements
  in
  let dominance =
    if
      c.Dataflow.Cost.cc_certified >= 16
      && List.length c.Dataflow.Cost.cc_elements > 1
    then
      List.filter_map
        (fun (elem, cert, _) ->
          if cert * 5 >= c.Dataflow.Cost.cc_certified * 4 then
            Some
              (Diagnostics.v ~code:"FBV060" ~pass:"static-cost"
                 ~severity:Diagnostics.Info ~path:elem
                 "element dominates the certified per-packet cost: %d of %d \
                  work units"
                 cert c.Dataflow.Cost.cc_certified)
          else None)
        c.Dataflow.Cost.cc_elements
    else []
  in
  let budget =
    if c.Dataflow.Cost.cc_certified > 2048 then
      [ Diagnostics.v ~code:"FBV062" ~pass:"static-cost"
          ~severity:Diagnostics.Warning ~path:"program"
          "certified worst-case per-packet cost of %d work units exceeds \
           half the default admission budget of 4096"
          c.Dataflow.Cost.cc_certified ]
    else []
  in
  divergence @ dominance @ budget

(* -- Entry points ------------------------------------------------------ *)

let passes =
  [ ("uninit-read", uninit_read); ("dead-code", dead_code);
    ("value-range", value_range); ("migration-safety", migration_safety);
    ("tenant-isolation", tenant_isolation); ("shard-safety", shard_safety);
    ("static-cost", static_cost) ]

let pass_names = List.map fst passes

let verify prog =
  Diagnostics.normalize (List.concat_map (fun (_, pass) -> pass prog) passes)

let of_typecheck_error (e : Typecheck.error) =
  Diagnostics.v ~code:"FBV000" ~pass:"typecheck" ~severity:Diagnostics.Error
    ~path:e.Typecheck.where "%s" e.Typecheck.what

let check prog =
  match Typecheck.check_program prog with
  | Error es -> Diagnostics.normalize (List.map of_typecheck_error es)
  | Ok () -> verify prog

(* -- Code registry (flexnet lint --explain) ---------------------------- *)

let explanations =
  [ ("FBV000", ("typecheck failure",
     "The program is not well-formed: unknown header/field/map, wrong map \
      key arity, a loop bound over the ceiling, or a malformed table. \
      Typecheck failures suppress the semantic passes, which assume \
      well-formed input."));
    ("FBV001", ("uninitialized header access",
     "A header field is read or written at a point where no parser rule and \
      no prior push_header can have produced the header. Add a parser rule \
      for the header or guard the access."));
    ("FBV002", ("uninitialized metadata read",
     "A metadata slot is read before any assignment; reads default to 0. \
      Assign the slot first, or rely on the documented default \
      deliberately."));
    ("FBV010", ("statement after unconditional drop",
     "Once a drop executes, the verdict cannot change: everything after it \
      at the same nesting level is dead. Guards whose condition folds to a \
      constant count as unconditional."));
    ("FBV011", ("element after drop-everything element",
     "An earlier pipeline element drops every packet, so this element never \
      sees traffic."));
    ("FBV012", ("unreachable non-default action",
     "The action is not the table's default and no installed rule references \
      it yet; it becomes reachable when the control plane installs such a \
      rule."));
    ("FBV013", ("untouched map",
     "The map is never read or written by the pipeline; it only consumes \
      memory. Remove it or wire it into an element."));
    ("FBV014", ("write-only map",
     "The pipeline writes the map but never reads it; its contents are \
      visible only to the control plane (a telemetry idiom)."));
    ("FBV015", ("read-only map",
     "The pipeline reads the map but never writes it; reads see \
      control-plane-installed state or 0."));
    ("FBV020", ("constant branch condition",
     "Interval analysis proves the condition always true or always false, \
      so one arm never runs. Usually a typo or a leftover debugging \
      guard."));
    ("FBV021", ("shift out of range",
     "The shift amount is always outside 0..63; the runtime masks it to 6 \
      bits, which is rarely what was meant."));
    ("FBV022", ("division by constant zero",
     "The divisor/modulus is always 0. FlexBPF defines x/0 = x%0 = 0, so \
      the whole expression is always 0."));
    ("FBV023", ("registers key always out of range",
     "Every access lands outside [0, size) of a registers-encoded map, so \
      it aliases through the hash with certainty. Bound the key or grow the \
      map."));
    ("FBV024", ("value cannot fit field",
     "The assigned value is always outside the target field's width; the \
      store truncates."));
    ("FBV025", ("nested loop budget",
     "The aggregate iteration count of nested loops dwarfs the per-loop \
      ceiling; per-packet latency will suffer on every target."));
    ("FBV030", ("lossy migration: registers encoding",
     "A per-packet-mutated map is pinned to the registers encoding, whose \
      key aliasing makes freeze-copy migration lossy (see §3.4)."));
    ("FBV031", ("lossy migration: flow-state encoding",
     "A per-packet-mutated map is pinned to the flow-state encoding, which \
      drops inserts when full, so freeze-copy migration may lose updates."));
    ("FBV040", ("tenant access violation",
     "The element touches a foreign map, collides on a name, or drops \
      traffic outside its VLAN guard; admission will reject it."));
    ("FBV041", ("tenant element not VLAN-guarded",
     "Admission wraps unguarded tenant elements in a VLAN guard \
      automatically; this is informational."));
    ("FBV050", ("shard-commutative map",
     "Every datapath write to the map is an increment, so per-shard \
      replicas merge by sum — the map is safe for the domain-sharded \
      datapath without coordination (count-min/sketch idiom)."));
    ("FBV051", ("map needs an exclusive owner shard",
     "The map has put/delete write sites carrying last-writer-wins state; \
      under domain sharding its keyspace must be owned by a single shard."));
    ("FBV052", ("read-modify-write race",
     "A value written to the map derives from a read of the same map \
      (x = f(x) rather than x += k). Across shards the lost-update race \
      makes the result depend on interleaving. Error for tenant extensions \
      (they get sharded); warning for infra programs (which may pin the map \
      to one shard). Rewrite as an increment where possible."));
    ("FBV053", ("commutative map read on the datapath",
     "The shard-commutative map is also read per packet; each shard \
      observes its partial counts until a merge, so thresholds fire on \
      shard-local values."));
    ("FBV054", ("mixed write disciplines",
     "The map receives both increments and put/delete writes; summed and \
      last-writer-wins state cannot be merged consistently across \
      shards."));
    ("FBV060", ("dominant element",
     "One element accounts for at least 80%% of the certified per-packet \
      cost; it is the optimization and placement bottleneck."));
    ("FBV061", ("planner cost model divergence",
     "The placement heuristic charges at least twice the certified \
      worst-case work for this element, because statically dead branches \
      still count toward the heuristic. Remove the dead code or expect \
      conservative placement."));
    ("FBV062", ("certified cost near the admission budget",
     "The certified worst-case per-packet cost exceeds half the default \
      admission budget (4096 work units); growth or composition with other \
      programs may push it over the gate."));
  ]

let explain code = List.assoc_opt (String.uppercase_ascii code) explanations
