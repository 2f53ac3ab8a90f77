(** Closure-compiled fast path for FlexBPF (§3.1–3.3's compile-once /
    run-per-packet split, staged into the simulator).

    [Interp] walks the AST on every packet: it re-filters and re-sorts a
    table's full rule list per packet, resolves action parameters
    through assoc lists, concatenates counter-key strings per table
    execution, and re-checks the parser against the header stack each
    time. This module compiles an installed program {e once} into OCaml
    closures so the per-packet work is only the work the modelled
    hardware would do:

    - expressions and statements become [pkt -> args -> ...] thunks with
      the AST dispatch paid at compile time;
    - action parameters are resolved to array slots instead of
      [List.assoc]; rule arguments are bound into the action closure at
      index-build time;
    - per-table hit/miss counters are pre-resolved to their [int ref]
      cells (no string hashing per packet);
    - map names are pre-resolved to [State.t] handles, revalidated
      against [env.maps_gen] with one integer compare;
    - header/field reads cache the resolved header per header-stack
      identity, so repeated reads walk the stack once per packet;
    - parser acceptance is memoised on the packet's shape string;
    - the loop variable is staged into a cell when the body provably
      never observes the [_loop_i] metadata through other channels;
    - rule matching becomes an index maintained per rules-generation:
      tables whose installed rules are all-exact get a hash index keyed
      on the evaluated key tuple; ternary/LPM/range tables keep a
      candidate array pre-sorted by (priority, specificity) so
      per-packet selection is a first-match scan with no sort.

    The index watches [env.rules_gen] (bumped by
    [Interp.install_rule]/[remove_rules]): the per-packet cost of
    consistency is one integer compare, and the filter+sort that the
    reference interpreter pays per packet is paid once per rule-set
    change. [Interp] remains the executable specification; the qcheck
    differential harness in [test/test_compile.ml] proves compiled ≡
    interpreted on random programs, rule sets, and packets. *)

open Ast

let error fmt = Printf.ksprintf (fun s -> raise (Interp.Eval_error s)) fmt

(* Compiled forms. Closures take the action-argument array so one
   compiled body serves every rule of an action; blocks pass [no_args]. *)
type cexpr = Netsim.Packet.t -> int64 array -> int64
type cstmt = Netsim.Packet.t -> int64 array -> Interp.verdict -> unit

let no_args : int64 array = [||]

let truthy v = v <> 0L
let of_bool b = if b then 1L else 0L

(* -- Cached handles ----------------------------------------------------

   The interpreter resolves maps, counters, and headers by name on every
   access. The compiled path resolves once and revalidates with a cheap
   check: an integer generation for maps, physical identity for the
   stats table and the header stack. *)

(* Map handle, revalidated against [env.maps_gen] (bumped by
   [Interp.set_env_map]/[remove_env_map], e.g. when a device loads a
   migration snapshot). A missing map faults on every access, exactly
   like the interpreter. *)
type mcache = {
  mc_name : string;
  mutable mc_gen : int;
  mutable mc_st : State.t;
}

let mcache_dummy = State.create ~name:"\000uninitialised" ~size:1 State.Registers

let mcache name = { mc_name = name; mc_gen = -1; mc_st = mcache_dummy }

let mc_state env mc =
  if mc.mc_gen <> env.Interp.maps_gen then begin
    mc.mc_st <- Interp.env_map env mc.mc_name;
    mc.mc_gen <- env.Interp.maps_gen
  end;
  mc.mc_st

(* Counter cell, resolved lazily on first bump (so a never-incremented
   counter stays absent from [Obs.Metrics.counters_list], like the
   interpreter's) and revalidated by physical identity of [env.stats]. *)
let dummy_stats = Obs.Metrics.create ()

type ccnt = {
  cc_name : string;
  mutable cc_tbl : Obs.Metrics.t;
  mutable cc_ref : int ref;
}

let ccnt name = { cc_name = name; cc_tbl = dummy_stats; cc_ref = ref 0 }

let cc_bump env cc =
  if cc.cc_tbl != env.Interp.stats then begin
    cc.cc_tbl <- env.Interp.stats;
    cc.cc_ref <- Obs.Metrics.counter cc.cc_tbl cc.cc_name
  end;
  incr cc.cc_ref

(* Per-site header cache keyed on the physical identity of the packet's
   header list: repeated reads of the same header walk the stack once
   per packet, and any push/pop builds a new list so staleness is
   impossible. A miss caches the [no_header] sentinel rather than an
   option, so resolving a new packet's header allocates nothing. The
   initial state ([], no_header) is self-consistent: an empty header
   stack is physically equal to [] and correctly resolves to "not
   found". *)
let no_header = { Netsim.Packet.hname = "\000"; fields = [] }

type hcache = {
  mutable h_list : Netsim.Packet.header list;
  mutable h_hdr : Netsim.Packet.header; (* [no_header] when absent *)
}

let hcache () = { h_list = []; h_hdr = no_header }

let rec find_header hname = function
  | [] -> no_header
  | (h : Netsim.Packet.header) :: tl ->
    if String.equal h.hname hname then h else find_header hname tl

let resolve_header hc hname (pkt : Netsim.Packet.t) =
  let hs = pkt.Netsim.Packet.headers in
  if hs != hc.h_list then begin
    hc.h_list <- hs;
    hc.h_hdr <- find_header hname hs
  end

(* Field sites additionally cache the binding's value cell, keyed on
   the physical identity of the header's field list: [Packet.set_field]
   mutates cells in place and never rebuilds the spine, so an unchanged
   list identity proves the cached cell is still the binding — reads
   and writes both become a deref once warm. [f_ok] guards the initial
   state and the missing-field error path. *)
type fcache = {
  f_hc : hcache;
  mutable f_fields : (string * int64 ref) list;
  mutable f_cell : int64 ref; (* valid iff [f_ok] *)
  mutable f_ok : bool;
}

let fcache () =
  { f_hc = hcache (); f_fields = []; f_cell = ref 0L; f_ok = false }

(* Resolve the field's cell through the two-level cache; the error
   thunks fire for a missing header / missing field (messages differ
   between read and write sites). *)
let rec find_field fname = function
  | [] -> raise Not_found
  | (k, c) :: tl -> if String.equal k fname then c else find_field fname tl

let field_cell fc hname fname pkt ~hdr_err ~fld_err =
  let hc = fc.f_hc in
  if pkt.Netsim.Packet.headers != hc.h_list then begin
    resolve_header hc hname pkt;
    fc.f_ok <- false
  end;
  let hdr = hc.h_hdr in
  if hdr == no_header then hdr_err ()
  else
    let fs = hdr.Netsim.Packet.fields in
    if fc.f_ok && fs == fc.f_fields then fc.f_cell
    else begin
      fc.f_ok <- false;
      let c =
        match find_field fname fs with c -> c | exception Not_found -> fld_err ()
      in
      fc.f_fields <- fs;
      fc.f_cell <- c;
      fc.f_ok <- true;
      c
    end

let compile_field hname fname : cexpr =
  let fc = fcache () in
  let err () = error "packet lacks %s.%s" hname fname in
  fun pkt _ -> !(field_cell fc hname fname pkt ~hdr_err:err ~fld_err:err)

(* Per-site cache of a metadata key's cell. Meta cells are append-only
   (no code removes a key), so once resolved for a packet the cell
   stays the binding for that packet's whole lifetime; the only check
   needed is which packet this is. (Not the table: a packet's table is
   created at its first metadata write.) *)
type mcellc = {
  mutable mm_pkt : Netsim.Packet.t;
  mutable mm_cell : int64 ref;
}

let mcellc () = { mm_pkt = Netsim.Packet.dummy; mm_cell = ref 0L }

let mcell_set mc key (pkt : Netsim.Packet.t) v =
  if pkt != mc.mm_pkt then begin
    mc.mm_cell <- Netsim.Packet.meta_cell pkt key;
    mc.mm_pkt <- pkt
  end;
  mc.mm_cell := v

(* -- Expressions ------------------------------------------------------ *)

(* [cparams] is the enclosing action's parameter list; a parameter
   compiles to its first slot (matching [List.assoc] on the combined
   list), an unbound one to a thunk raising the interpreter's error.
   [cloop] is the innermost staged loop variable, when the loop body
   qualifies (see [loop_substitutable]). *)
type cctx = {
  cenv : Interp.env;
  cparams : string list;
  cloop : int64 ref option;
  chslots : ((string * string) * int) list;
    (* loop-invariant field reads hoisted to slots (see [leading_fields]) *)
  charr : int64 ref array; (* the slots, filled at loop entry *)
}

(* An operand that reduces to a plain cell read in this context — a
   hoisted field slot, the staged loop variable, or a constant. Such
   operands are pure and fault-free, so a consumer may fuse them
   without closure calls and in any order. *)
let operand_ref ctx = function
  | Meta m ->
    (match ctx.cloop with
     | Some cell when String.equal m "_loop_i" -> Some cell
     | _ -> None)
  | Field (h, f) ->
    (match List.assoc_opt (h, f) ctx.chslots with
     | Some i -> Some ctx.charr.(i)
     | None -> None)
  | Const v -> Some (ref v)
  | _ -> None

let operand_refs ctx es =
  let rec go acc = function
    | [] -> Some (Array.of_list (List.rev acc))
    | e :: tl ->
      (match operand_ref ctx e with
       | Some r -> go (r :: acc) tl
       | None -> None)
  in
  go [] es

let rec compile_expr ctx (e : expr) : cexpr =
  let env = ctx.cenv in
  match e with
  | Const v -> fun _ _ -> v
  | Field (h, f) ->
    (match List.assoc_opt (h, f) ctx.chslots with
     | Some i ->
       let cell = ctx.charr.(i) in
       fun _ _ -> !cell
     | None -> compile_field h f)
  | Meta m ->
    (match ctx.cloop with
     | Some cell when String.equal m "_loop_i" -> fun _ _ -> !cell
     | _ -> fun pkt _ -> Netsim.Packet.meta_default pkt m 0L)
  | Param p ->
    let rec slot i = function
      | [] -> None
      | q :: _ when String.equal q p -> Some i
      | _ :: tl -> slot (i + 1) tl
    in
    (match slot 0 ctx.cparams with
     | Some i -> fun _ args -> args.(i)
     | None -> fun _ _ -> error "unbound parameter $%s" p)
  | Map_get (m, keys) ->
    let mc = mcache m in
    let ckeys = compile_keys ctx keys in
    fun pkt args -> State.get (mc_state env mc) (ckeys pkt args)
  | Bin (Land, a, b) ->
    let ca = compile_expr ctx a and cb = compile_expr ctx b in
    fun pkt args ->
      if truthy (ca pkt args) then of_bool (truthy (cb pkt args)) else 0L
  | Bin (Lor, a, b) ->
    let ca = compile_expr ctx a and cb = compile_expr ctx b in
    fun pkt args ->
      if truthy (ca pkt args) then 1L else of_bool (truthy (cb pkt args))
  | Bin (Mod, Hash (alg, es), Const w)
    when (match (alg, es) with Identity, [ _ ] -> false | _ -> true)
         && (not (Int64.equal w 0L))
         && Int64.equal (Int64.of_int (Int64.to_int w)) w ->
    (* hash → finish → mod fused into untagged int arithmetic (the
       sketch-column idiom). The interpreter computes
       [Int64.rem (of_int (finish h)) w]; the finished value is
       non-negative and int-sized and [w] is int-exact, so the native
       [mod] agrees and only the final result is boxed. *)
    let wi = Int64.to_int w in
    (match (operand_refs ctx es, alg) with
     (* all operands are cell reads (hoisted fields / staged loop var /
        constants): one closure, no operand calls — the sketch-row
        idiom [hash(i, flow...) mod width] inside a compiled loop *)
     | Some [| a; b; c; d |], (Crc32 | Identity) ->
       fun _ _ ->
         let h = Interp.hash_step Interp.hash_init !a in
         let h = Interp.hash_step h !b in
         let h = Interp.hash_step h !c in
         let h = Interp.hash_step h !d in
         Int64.of_int ((Interp.hash_mix h land 0x7FFFFFFF) mod wi)
     | Some [| a; b; c |], (Crc32 | Identity) ->
       fun _ _ ->
         let h = Interp.hash_step Interp.hash_init !a in
         let h = Interp.hash_step h !b in
         let h = Interp.hash_step h !c in
         Int64.of_int ((Interp.hash_mix h land 0x7FFFFFFF) mod wi)
     | _ ->
       let fold = hash_folder (compile_exprs ctx es) in
       (match alg with
        | Crc16 ->
          fun pkt args ->
            Int64.of_int
              (((Interp.hash_mix (fold pkt args) lsr 16) land 0xFFFF) mod wi)
        | Crc32 | Identity ->
          fun pkt args ->
            Int64.of_int
              ((Interp.hash_mix (fold pkt args) land 0x7FFFFFFF) mod wi)))
  | Bin (op, a, Const y) ->
    (* constant right operand bound at compile time (pure, so hoisting
       past the left operand is sound); div/mod still evaluate the left
       operand for its faults before yielding the by-zero 0 *)
    let ca = compile_expr ctx a in
    (match op with
     | Add -> fun pkt args -> Int64.add (ca pkt args) y
     | Sub -> fun pkt args -> Int64.sub (ca pkt args) y
     | Mul -> fun pkt args -> Int64.mul (ca pkt args) y
     | Div ->
       if Int64.equal y 0L then fun pkt args ->
         let _ = ca pkt args in
         0L
       else fun pkt args -> Int64.div (ca pkt args) y
     | Mod ->
       if Int64.equal y 0L then fun pkt args ->
         let _ = ca pkt args in
         0L
       else fun pkt args -> Int64.rem (ca pkt args) y
     | Band -> fun pkt args -> Int64.logand (ca pkt args) y
     | Bor -> fun pkt args -> Int64.logor (ca pkt args) y
     | Bxor -> fun pkt args -> Int64.logxor (ca pkt args) y
     | Shl ->
       let s = Int64.to_int y land 63 in
       fun pkt args -> Int64.shift_left (ca pkt args) s
     | Shr ->
       let s = Int64.to_int y land 63 in
       fun pkt args -> Int64.shift_right_logical (ca pkt args) s
     | Eq -> fun pkt args -> of_bool (Int64.equal (ca pkt args) y)
     | Neq -> fun pkt args -> of_bool (not (Int64.equal (ca pkt args) y))
     | Lt -> fun pkt args -> of_bool (Int64.compare (ca pkt args) y < 0)
     | Le -> fun pkt args -> of_bool (Int64.compare (ca pkt args) y <= 0)
     | Gt -> fun pkt args -> of_bool (Int64.compare (ca pkt args) y > 0)
     | Ge -> fun pkt args -> of_bool (Int64.compare (ca pkt args) y >= 0)
     | Land ->
       let r = of_bool (truthy y) in
       fun pkt args -> if truthy (ca pkt args) then r else 0L
     | Lor ->
       if truthy y then fun pkt args ->
         let _ = ca pkt args in
         1L
       else fun pkt args -> of_bool (truthy (ca pkt args)))
  | Bin (op, a, b) ->
    let ca = compile_expr ctx a and cb = compile_expr ctx b in
    (* every operator specialised so no per-packet dispatch remains;
       left-to-right evaluation and div/mod-by-zero = 0 as in the
       interpreter *)
    (match op with
     | Add -> fun pkt args ->
         let x = ca pkt args in Int64.add x (cb pkt args)
     | Sub -> fun pkt args ->
         let x = ca pkt args in Int64.sub x (cb pkt args)
     | Mul -> fun pkt args ->
         let x = ca pkt args in Int64.mul x (cb pkt args)
     | Div -> fun pkt args ->
         let x = ca pkt args in
         let y = cb pkt args in
         if y = 0L then 0L else Int64.div x y
     | Mod -> fun pkt args ->
         let x = ca pkt args in
         let y = cb pkt args in
         if y = 0L then 0L else Int64.rem x y
     | Band -> fun pkt args ->
         let x = ca pkt args in Int64.logand x (cb pkt args)
     | Bor -> fun pkt args ->
         let x = ca pkt args in Int64.logor x (cb pkt args)
     | Bxor -> fun pkt args ->
         let x = ca pkt args in Int64.logxor x (cb pkt args)
     | Shl -> fun pkt args ->
         let x = ca pkt args in
         Int64.shift_left x (Int64.to_int (cb pkt args) land 63)
     | Shr -> fun pkt args ->
         let x = ca pkt args in
         Int64.shift_right_logical x (Int64.to_int (cb pkt args) land 63)
     | Eq -> fun pkt args ->
         let x = ca pkt args in of_bool (Int64.equal x (cb pkt args))
     | Neq -> fun pkt args ->
         let x = ca pkt args in of_bool (not (Int64.equal x (cb pkt args)))
     | Lt -> fun pkt args ->
         let x = ca pkt args in of_bool (Int64.compare x (cb pkt args) < 0)
     | Le -> fun pkt args ->
         let x = ca pkt args in of_bool (Int64.compare x (cb pkt args) <= 0)
     | Gt -> fun pkt args ->
         let x = ca pkt args in of_bool (Int64.compare x (cb pkt args) > 0)
     | Ge -> fun pkt args ->
         let x = ca pkt args in of_bool (Int64.compare x (cb pkt args) >= 0)
     | Land | Lor -> assert false (* handled above *))
  | Un (op, e) ->
    let ce = compile_expr ctx e in
    (match op with
     | Not -> fun pkt args -> of_bool (not (truthy (ce pkt args)))
     | Neg -> fun pkt args -> Int64.neg (ce pkt args)
     | Bnot -> fun pkt args -> Int64.lognot (ce pkt args))
  | Hash (alg, es) ->
    let ces = compile_exprs ctx es in
    (match alg, ces with
     | Identity, [| ce |] -> fun pkt args -> ce pkt args
     | Crc16, _ ->
       let fold = hash_folder ces in
       fun pkt args -> Interp.crc16_finish (fold pkt args)
     | (Crc32 | Identity), _ ->
       let fold = hash_folder ces in
       fun pkt args -> Interp.crc32_finish (fold pkt args))
  | Time -> fun _ _ -> env.Interp.now_us

and compile_exprs ctx es = Array.of_list (List.map (compile_expr ctx) es)

(* Keys are evaluated left to right into a buffer owned by the access
   site and reused by every packet, so a lookup builds no key; [State]
   only reads the buffer and copies it on insert. Buffers are per site,
   not per map, so a key that itself reads the same map ([incr m
   [get(m, k)] 1]) fills a different buffer. Short key tuples (map
   arity 1–3 in practice) get a filler specialised to the arity. Keys
   that reduce to cell reads (staged loop variable, hoisted field
   slots, constants) skip the per-key closure call — pure and
   fault-free, so fusing them cannot reorder observable effects. The
   sketch-update idiom [incr cms [i, hash(...) mod w] 1] hits the
   two-key ref-first case on every loop iteration. *)
and compile_keys ctx keys : Netsim.Packet.t -> int64 array -> State.key =
  let buf = Array.make (List.length keys) 0L in
  match keys with
  | [] -> fun _ _ -> buf
  | [ ka ] ->
    (match operand_ref ctx ka with
     | Some ra -> fun _ _ -> buf.(0) <- !ra; buf
     | None ->
       let a = compile_expr ctx ka in
       fun pkt args -> buf.(0) <- a pkt args; buf)
  | [ ka; kb ] ->
    (match (operand_ref ctx ka, operand_ref ctx kb) with
     | Some ra, Some rb -> fun _ _ -> buf.(0) <- !ra; buf.(1) <- !rb; buf
     | Some ra, None ->
       let b = compile_expr ctx kb in
       fun pkt args -> buf.(0) <- !ra; buf.(1) <- b pkt args; buf
     | None, Some rb ->
       let a = compile_expr ctx ka in
       fun pkt args -> buf.(0) <- a pkt args; buf.(1) <- !rb; buf
     | None, None ->
       let a = compile_expr ctx ka
       and b = compile_expr ctx kb in
       fun pkt args -> buf.(0) <- a pkt args; buf.(1) <- b pkt args; buf)
  | [ ka; kb; kc ] ->
    let a = compile_expr ctx ka
    and b = compile_expr ctx kb
    and c = compile_expr ctx kc in
    fun pkt args ->
      buf.(0) <- a pkt args;
      buf.(1) <- b pkt args;
      buf.(2) <- c pkt args;
      buf
  | _ ->
    let ces = compile_exprs ctx keys in
    fun pkt args ->
      for i = 0 to Array.length ces - 1 do
        buf.(i) <- ces.(i) pkt args
      done;
      buf

(* Streams the operands through the hash fold without building the
   interpreter's intermediate list; common small arities get a direct
   let-chain (the fold state is untagged [int], so the chain is
   allocation-free between operand evaluations). *)
and hash_folder (ces : cexpr array) : Netsim.Packet.t -> int64 array -> int =
  match ces with
  | [| a |] -> fun pkt args -> Interp.hash_step Interp.hash_init (a pkt args)
  | [| a; b |] ->
    fun pkt args ->
      let h = Interp.hash_step Interp.hash_init (a pkt args) in
      Interp.hash_step h (b pkt args)
  | [| a; b; c |] ->
    fun pkt args ->
      let h = Interp.hash_step Interp.hash_init (a pkt args) in
      let h = Interp.hash_step h (b pkt args) in
      Interp.hash_step h (c pkt args)
  | [| a; b; c; d |] ->
    fun pkt args ->
      let h = Interp.hash_step Interp.hash_init (a pkt args) in
      let h = Interp.hash_step h (b pkt args) in
      let h = Interp.hash_step h (c pkt args) in
      Interp.hash_step h (d pkt args)
  | _ ->
    fun pkt args ->
      let h = ref Interp.hash_init in
      for i = 0 to Array.length ces - 1 do
        h := Interp.hash_step !h (ces.(i) pkt args)
      done;
      !h

(* -- Statements ------------------------------------------------------- *)

(* A loop body can run with its loop variable staged in a cell (no
   metadata writes per iteration) only if nothing in the body can
   observe [_loop_i] through the packet: no nested loop (rebinds it),
   no write to it, and no punt/dRPC callback (external code receiving
   the packet mid-loop). The final iteration's value is still published
   to the metadata afterwards — and on a fault, before the error
   escapes — so post-run state is indistinguishable. *)
let rec loop_substitutable stmts = List.for_all stmt_substitutable stmts

and stmt_substitutable = function
  | Loop _ | Punt _ | Call _ -> false
  | Set_meta ("_loop_i", _) -> false
  | If (_, th, el) -> loop_substitutable th && loop_substitutable el
  | Nop | Set_meta _ | Set_field _ | Map_put _ | Map_incr _ | Map_del _
  | Forward _ | Drop | Push_header _ | Pop_header _ -> true

(* A qualifying loop body may additionally have loop-invariant field
   reads hoisted into slots filled once at loop entry. Soundness needs:
   (a) field values and header presence invariant across iterations —
   no set_field/push/pop and no external callback in the body;
   (b) expression evaluation free of side effects and of non-field
   faults — no map_get (stateful tables record LRU touches) and no
   params anywhere in the body, so the hoisted prefix can only raise
   the same field faults, in the same order, that the interpreter
   would raise on iteration 0;
   (c) only fields the interpreter evaluates unconditionally before
   the first side effect qualify — the evaluation prefix of the first
   non-Nop statement. Later statements run after that statement's
   effects, and an If's branches may not run at all. *)
let rec expr_pure_total = function
  | Const _ | Meta _ | Time | Field _ -> true
  | Param _ | Map_get _ -> false
  | Bin (_, a, b) -> expr_pure_total a && expr_pure_total b
  | Un (_, e) -> expr_pure_total e
  | Hash (_, es) -> List.for_all expr_pure_total es

let rec body_hoistable stmts = List.for_all stmt_hoistable stmts

and stmt_hoistable = function
  | Nop | Drop -> true
  | Set_meta (_, e) | Forward e -> expr_pure_total e
  | Map_put (_, ks, e) | Map_incr (_, ks, e) ->
    List.for_all expr_pure_total ks && expr_pure_total e
  | Map_del (_, ks) -> List.for_all expr_pure_total ks
  | If (c, th, el) ->
    expr_pure_total c && body_hoistable th && body_hoistable el
  | Set_field _ | Push_header _ | Pop_header _ | Loop _ | Punt _ | Call _ ->
    false

(* Field reads in the interpreter's evaluation order: [Bin] evaluates
   left then right except the short-circuit operators (right operand
   conditional, so excluded); hash operands and keys left-to-right. *)
let rec expr_fields acc = function
  | Const _ | Meta _ | Time | Param _ | Map_get _ -> acc
  | Field (h, f) -> (h, f) :: acc
  | Bin ((Land | Lor), a, _) -> expr_fields acc a
  | Bin (_, a, b) -> expr_fields (expr_fields acc a) b
  | Un (_, e) -> expr_fields acc e
  | Hash (_, es) -> List.fold_left expr_fields acc es

let leading_fields body =
  let rec first = function
    | Nop :: tl -> first tl
    | s :: _ -> Some s
    | [] -> None
  in
  let acc =
    match first body with
    | Some (Set_meta (_, e)) | Some (Forward e) -> expr_fields [] e
    | Some (Map_put (_, ks, e)) | Some (Map_incr (_, ks, e)) ->
      (* value expression first: the interpreter's argument order *)
      List.fold_left expr_fields (expr_fields [] e) ks
    | Some (Map_del (_, ks)) -> List.fold_left expr_fields [] ks
    | Some (If (c, _, _)) -> expr_fields [] c
    | _ -> []
  in
  (* first occurrence wins, evaluation order preserved *)
  List.fold_left
    (fun seen hf -> if List.mem hf seen then seen else hf :: seen)
    [] (List.rev acc)
  |> List.rev

(* [Some port] for the common port numbers, preallocated so that
   forwarding does not allocate. *)
let port_opts = Array.init 1024 Option.some

let some_port p =
  if p >= 0 && p < Array.length port_opts then port_opts.(p) else Some p

let rec compile_stmt ctx (s : stmt) : cstmt =
  let env = ctx.cenv in
  match s with
  | Nop -> fun _ _ _ -> ()
  | Set_field (h, f, e) ->
    let ce = compile_expr ctx e in
    let fc = fcache () in
    (* messages match [Packet.set_field]'s Invalid_argument, which the
       interpreter rewraps as Eval_error *)
    let hdr_err () = error "Packet.set_field: no header %s" h in
    let fld_err () = error "Packet.set_field: no field %s.%s" h f in
    fun pkt args _ ->
      let v = ce pkt args in
      field_cell fc h f pkt ~hdr_err ~fld_err := v
  | Set_meta (m, e) ->
    let ce = compile_expr ctx e in
    let mc = mcellc () in
    (* value evaluated before the cell is resolved: a fault in [e] must
       leave the metadata untouched, as in the interpreter *)
    fun pkt args _ ->
      let v = ce pkt args in
      mcell_set mc m pkt v
  | Map_put (m, keys, e) ->
    let mc = mcache m in
    let ckeys = compile_keys ctx keys in
    let ce = compile_expr ctx e in
    fun pkt args _ ->
      (* the interpreter evaluates the value expression before the keys
         and resolves the map last (OCaml right-to-left argument
         order); mirror it so fault precedence is identical *)
      let v = ce pkt args in
      let ks = ckeys pkt args in
      State.put (mc_state env mc) ks v
  | Map_incr (m, keys, Const d) ->
    (* constant delta bound at compile time (pure, so skipping its
       evaluation slot is unobservable) — the counter/sketch idiom *)
    let mc = mcache m in
    let ckeys = compile_keys ctx keys in
    fun pkt args _ ->
      let ks = ckeys pkt args in
      ignore (State.incr (mc_state env mc) ks d)
  | Map_incr (m, keys, e) ->
    let mc = mcache m in
    let ckeys = compile_keys ctx keys in
    let ce = compile_expr ctx e in
    fun pkt args _ ->
      let v = ce pkt args in
      let ks = ckeys pkt args in
      ignore (State.incr (mc_state env mc) ks v)
  | Map_del (m, keys) ->
    let mc = mcache m in
    let ckeys = compile_keys ctx keys in
    fun pkt args _ -> State.del (mc_state env mc) (ckeys pkt args)
  | If (c, th, el) ->
    let cc = compile_expr ctx c in
    let cth = compile_stmts ctx th in
    let cel = compile_stmts ctx el in
    fun pkt args verdict ->
      if truthy (cc pkt args) then cth pkt args verdict
      else cel pkt args verdict
  | Loop (n, body) when n > 0 && loop_substitutable body ->
    let cell = ref 0L in
    let ivals = Array.init n Int64.of_int in
    let hoist = if body_hoistable body then leading_fields body else [] in
    let harr = Array.init (List.length hoist) (fun _ -> ref 0L) in
    let getters =
      Array.of_list (List.map (fun (h, f) -> compile_field h f) hoist)
    in
    let cbody =
      compile_stmts
        { ctx with
          cloop = Some cell;
          chslots = List.mapi (fun i hf -> (hf, i)) hoist;
          charr = harr }
        body
    in
    let last = ivals.(n - 1) in
    let ng = Array.length getters in
    let mc = mcellc () in
    fun pkt args verdict ->
      (try
         (* hoisted reads fault as iteration 0 would; the cell is set
            first so the handler publishes the iteration the
            interpreter would have reached *)
         cell := ivals.(0);
         for i = 0 to ng - 1 do
           harr.(i) := getters.(i) pkt args
         done;
         for i = 0 to n - 1 do
           cell := ivals.(i);
           cbody pkt args verdict
         done
       with e ->
         (* a fault escapes mid-loop: publish the iteration the
            interpreter would have left in the metadata *)
         mcell_set mc "_loop_i" pkt !cell;
         raise e);
      mcell_set mc "_loop_i" pkt last
  | Loop (n, body) ->
    let cbody = compile_stmts { ctx with cloop = None } body in
    let mc = mcellc () in
    fun pkt args verdict ->
      for i = 0 to n - 1 do
        mcell_set mc "_loop_i" pkt (Int64.of_int i);
        cbody pkt args verdict
      done
  | Forward e ->
    let ce = compile_expr ctx e in
    fun pkt args verdict ->
      verdict.Interp.egress <- some_port (Int64.to_int (ce pkt args))
  | Drop -> fun _ _ verdict -> verdict.Interp.dropped <- true
  | Punt digest ->
    fun pkt _ verdict ->
      verdict.Interp.punts <- digest :: verdict.Interp.punts;
      env.Interp.punt digest pkt
  | Push_header h ->
    fun pkt _ _ ->
      Netsim.Packet.push_header pkt { Netsim.Packet.hname = h; fields = [] }
  | Pop_header h -> fun pkt _ _ -> Netsim.Packet.pop_header pkt h
  | Call (svc, argexprs) ->
    let cargs = compile_keys ctx argexprs in
    let meta_key = "drpc_" ^ svc in (* interned once, not per packet *)
    let mc = mcellc () in
    fun pkt args _ ->
      let result = env.Interp.drpc svc (Array.to_list (cargs pkt args)) in
      mcell_set mc meta_key pkt result

and compile_stmts ctx stmts : cstmt =
  match List.map (compile_stmt ctx) stmts with
  | [] -> fun _ _ _ -> ()
  | [ c ] -> c
  | cs ->
    let arr = Array.of_list cs in
    fun pkt args verdict ->
      for i = 0 to Array.length arr - 1 do
        arr.(i) pkt args verdict
      done

(* -- Tables ------------------------------------------------------------ *)

(** A rule staged for per-packet matching: patterns as an array, the
    action's compiled body and the rule's bound arguments. *)
type prepared = {
  pre_priority : int;
  pre_spec : int;
  pre_matches : pattern array;
  pre_body : cstmt;
  pre_args : int64 array;
}

(* The "no installed rule matched" result: probes and the device tier
   return it instead of an option, so a lookup allocates nothing. *)
let no_rule =
  { pre_priority = 0; pre_spec = 0; pre_matches = [||];
    pre_body = (fun _ _ _ -> ()); pre_args = no_args }

type index =
  | Hash_index of prepared State.Key_tbl.t
    (* all installed rules exact: evaluated key tuple -> winning rule *)
  | Scan of prepared array
    (* pre-sorted by (priority desc, specificity desc), stable in
       install recency — first match wins, no per-packet sort *)
  | Tiered of {
      td_auth : index;
        (* the authoritative host tier: the full Hash_index/Scan over
           every installed rule, never [Tiered] itself *)
      td_cache : prepared State.Tier.t;
        (* the bounded device tier: evaluated key tuple -> memoized
           winner of the authoritative first-match lookup. Because a
           binding is the memoized {e result} (including [no_rule] = the
           default action), partial residency cannot shadow a
           higher-priority host rule — priority semantics are exact for
           every pattern kind, and demotion is semantically neutral. *)
    }

type ctable = {
  ct_table : table;
  ct_hit : ccnt; (* pre-resolved counter cells *)
  ct_miss : ccnt;
  ct_keys : Netsim.Packet.t -> int64 array -> State.key;
    (* fills and returns the table's key buffer *)
  ct_default : Netsim.Packet.t -> Interp.verdict -> unit;
  (* resolves a rule's (action, args) to its body and argument array *)
  ct_bind : string -> int64 list -> cstmt * int64 array;
  mutable ct_index : index;
  mutable ct_gen : int; (* env.rules_gen the index was built against *)
}

(** Compile an action body once; [bind] then pairs it with a rule's
    argument array. Arity mismatches and unknown actions keep the
    interpreter's behaviour: the error fires if and when the rule is
    selected, after the hit counter is bumped. *)
let compile_action_binder env (t : table) =
  let compiled =
    List.map
      (fun a ->
        ( a.act_name,
          List.length a.params,
          compile_stmts
            { cenv = env; cparams = a.params; cloop = None;
              chslots = []; charr = [||] }
            a.body ))
      t.tbl_actions
  in
  fun action_name args ->
    let fail what =
      ((fun _ _ _ -> error "table %s: action %s %s" t.tbl_name action_name what),
       no_args)
    in
    match
      List.find_opt (fun (n, _, _) -> String.equal n action_name) compiled
    with
    | None -> fail "missing"
    | Some (_, arity, body) ->
      if List.length args <> arity then fail "arity mismatch"
      else (body, Array.of_list args)

let prepare_rule bind (r : rule) =
  let pre_body, pre_args = bind r.rule_action r.rule_args in
  { pre_priority = r.rule_priority;
    pre_spec = Interp.rule_specificity r;
    pre_matches = Array.of_list r.matches;
    pre_body;
    pre_args }

let all_exact (pre : prepared) =
  Array.for_all (function P_exact _ -> true | _ -> false) pre.pre_matches

let exact_key (pre : prepared) : State.key =
  Array.map (function P_exact v -> v | _ -> assert false) pre.pre_matches

(** Rebuild a table's index from the environment's current rule list.
    Each rule is prepared once, and the sort reads the prepared
    priority and specificity. The rule list is newest-first; the
    stable sort therefore breaks (priority, specificity) ties toward
    the most recent install, exactly like the reference interpreter's
    per-packet sort. *)
let build_index env (ct : ctable) =
  let arity = List.length ct.ct_table.keys in
  let prepared =
    Interp.table_rules env ct.ct_table.tbl_name
    |> List.filter_map (fun r ->
           if List.length r.matches = arity then Some (prepare_rule ct.ct_bind r)
           else None)
  in
  let rank a b =
    match Int.compare b.pre_priority a.pre_priority with
    | 0 -> Int.compare b.pre_spec a.pre_spec
    | c -> c
  in
  (* rules installed at one rank (the common case) are already in
     stable-sort order *)
  let sorted =
    match prepared with
    | first :: _ when List.for_all (fun p -> rank first p = 0) prepared ->
      prepared
    | _ -> List.stable_sort rank prepared
  in
  let auth =
    match sorted with
    | _ :: _ when List.for_all all_exact sorted ->
      let h = State.Key_tbl.create (List.length sorted) in
      (* first in sorted order wins a duplicate key tuple *)
      List.iter
        (fun pre ->
          let k = exact_key pre in
          if not (State.Key_tbl.mem h k) then State.Key_tbl.add h k pre)
        sorted;
      Hash_index h
    | _ -> Scan (Array.of_list sorted)
  in
  ct.ct_index <-
    (match Interp.tier_capacity env ct.ct_table.tbl_name with
     | Some cap ->
       (* Any rule-set change flushes the device tier wholesale: stale
          memoized winners (deleted rules, priority updates) cannot
          survive a generation, and cumulative telemetry is kept. *)
       let cache =
         match ct.ct_index with
         | Tiered { td_cache; _ } ->
           State.Tier.flush ~cap td_cache;
           td_cache
         | Hash_index _ | Scan _ -> State.Tier.create ~cap
       in
       Tiered { td_auth = auth; td_cache = cache }
     | None -> auth);
  ct.ct_gen <- env.Interp.rules_gen

let compile_table env (t : table) : ctable =
  let bind = compile_action_binder env t in
  let default_name, default_args = t.default_action in
  let ctx =
    { cenv = env; cparams = []; cloop = None; chslots = []; charr = [||] }
  in
  { ct_table = t;
    ct_hit = ccnt (t.tbl_name ^ ".hit");
    ct_miss = ccnt (t.tbl_name ^ ".miss");
    ct_keys = compile_keys ctx (List.map fst t.keys);
    ct_default =
      (let body, args = bind default_name default_args in
       fun pkt verdict -> body pkt args verdict);
    ct_bind = bind;
    ct_index = Scan [||];
    ct_gen = -1 }

let rec matches_from (pre : prepared) (keys : State.key) i =
  i >= Array.length pre.pre_matches
  || (Interp.match_pattern keys.(i) pre.pre_matches.(i)
      && matches_from pre keys (i + 1))

let rec scan_from (arr : prepared array) (keys : State.key) i =
  if i >= Array.length arr then no_rule
  else
    let pre = arr.(i) in
    if Array.length pre.pre_matches = Array.length keys && matches_from pre keys 0
    then pre
    else scan_from arr keys (i + 1)

(* Authoritative (host-tier) probe; [no_rule] when nothing matches. *)
let probe_auth auth keys =
  match auth with
  | Hash_index h ->
    (match State.Key_tbl.find h keys with
     | pre -> pre
     | exception Not_found -> no_rule)
  | Scan arr -> scan_from arr keys 0
  | Tiered _ -> assert false (* td_auth is never itself tiered *)

let exec_ctable env (ct : ctable) pkt verdict =
  if ct.ct_gen <> env.Interp.rules_gen then build_index env ct;
  (* key expressions are always evaluated, rules installed or not — a
     missing header must fault exactly as in the interpreter — and
     exactly once: key evaluation may touch maps (LRU ticks),
     observable through State semantics *)
  let keys = ct.ct_keys pkt no_args in
  let selected =
    match ct.ct_index with
    | Tiered { td_auth; td_cache } ->
      (match State.Tier.find td_cache keys with
       | memo -> memo (* device-tier hit *)
       | exception Not_found ->
         (* device-tier fault: the authoritative lookup serves the
            packet (slow path), and the binding is demand-paged in
            through the runtime's hook. The hook may commit after
            later packets have refilled the key buffer, so it gets a
            copy. The commit closure re-checks the generation and
            index identity so a promotion that lands after a rule
            change (async dRPC) is dropped, not applied stale. *)
         let winner = probe_auth td_auth keys in
         let gen = ct.ct_gen in
         let key = Array.copy keys in
         env.Interp.page_in ct.ct_table.tbl_name key (fun () ->
             if ct.ct_gen = gen && env.Interp.rules_gen = gen then
               match ct.ct_index with
               | Tiered { td_cache = c; _ } when c == td_cache ->
                 State.Tier.promote c key winner
               | _ -> ());
         winner)
    | auth -> probe_auth auth keys
  in
  if selected != no_rule then begin
    cc_bump env ct.ct_hit;
    selected.pre_body pkt selected.pre_args verdict
  end
  else begin
    cc_bump env ct.ct_miss;
    ct.ct_default pkt verdict
  end

(* -- Parser ------------------------------------------------------------ *)

(* Acceptance depends only on the packet's header-name sequence, i.e.
   its [Packet.shape] string; memoised per shape with a last-shape fast
   path (simulated traffic is shape-stable). The cap guards against
   adversarial header churn creating unbounded shapes. *)
let parser_memo_cap = 1024

type cparser = {
  cp_prefixes : string array; (* pr_headers of each rule, joined by '/' *)
  cp_memo : (string, bool) Hashtbl.t;
  mutable cp_last_shape : string;
  mutable cp_last_ok : bool;
}

let compile_parser (prog : program) =
  { cp_prefixes =
      Array.of_list
        (List.map (fun r -> String.concat "/" r.pr_headers) prog.parser);
    cp_memo = Hashtbl.create 16;
    cp_last_shape = "\000"; (* no real shape: header names are idents *)
    cp_last_ok = false }

(* [prefix] accepts [shape] iff its header-name list is a prefix of the
   shape's: string-prefix plus a boundary check so "eth/vla" does not
   match "eth/vlan". *)
let shape_prefix prefix shape =
  let lp = String.length prefix in
  lp = 0
  || (String.length shape >= lp
      && String.sub shape 0 lp = prefix
      && (String.length shape = lp || shape.[lp] = '/'))

let parser_accepts (cp : cparser) pkt =
  let shape = Netsim.Packet.shape pkt in
  if String.equal shape cp.cp_last_shape then cp.cp_last_ok
  else begin
    let ok =
      match Hashtbl.find_opt cp.cp_memo shape with
      | Some b -> b
      | None ->
        let rec any i =
          i < Array.length cp.cp_prefixes
          && (shape_prefix cp.cp_prefixes.(i) shape || any (i + 1))
        in
        let b = any 0 in
        if Hashtbl.length cp.cp_memo < parser_memo_cap then
          Hashtbl.add cp.cp_memo shape b;
        b
    in
    cp.cp_last_shape <- shape;
    cp.cp_last_ok <- ok;
    ok
  end

(* -- Whole program ----------------------------------------------------- *)

type celement =
  | C_table of ctable
  | C_block of cstmt

type t = {
  c_prog : program;
  c_env : Interp.env;
  c_parser : cparser;
  c_accept : ccnt;
  c_reject : ccnt;
  c_error : ccnt;
  c_pipeline : celement array;
}

(* The index of the first element of [olds] (the tail of a previous
   pipeline starting at index [i]) physically equal to [el]; -1 when
   there is none. *)
let rec index_from el olds i =
  match olds with
  | [] -> -1
  | e :: rest -> if e == el then i else index_from el rest (i + 1)

let rec drop k l =
  match l with _ :: rest when k > 0 -> drop (k - 1) rest | _ -> l

let no_element = C_block (fun _ _ _ -> ())

let compile ?prev (env : Interp.env) (prog : program) : t =
  let ctx =
    { cenv = env; cparams = []; cloop = None; chslots = []; charr = [||] }
  in
  let fresh = function
    | Table tbl -> C_table (compile_table env tbl)
    | Block b -> C_block (compile_stmts ctx b.blk_body)
  in
  let pipeline = Array.make (List.length prog.pipeline) no_element in
  (match prev with
   | Some p when p.c_env == env ->
     (* Compiled code depends only on the element and the environment,
        so an element physically unchanged since [p] keeps its
        closures. Both pipelines are walked in step: a cursor into
        [p]'s pipeline advances past each reused element, and an
        element not found after the cursor is compiled fresh. A reused
        table gets a fresh record with an unbuilt index, so its rule
        index and device tier are rebuilt exactly as a fresh compile's
        would be. *)
     let olds = ref p.c_prog.pipeline and next = ref 0 in
     List.iteri
       (fun j el ->
         let i = index_from el !olds !next in
         pipeline.(j) <-
           (if i < 0 then fresh el
            else begin
              olds := drop (i - !next + 1) !olds;
              next := i + 1;
              match p.c_pipeline.(i) with
              | C_table ct ->
                C_table { ct with ct_index = Scan [||]; ct_gen = -1 }
              | C_block _ as c -> c
            end))
       prog.pipeline
   | _ -> List.iteri (fun j el -> pipeline.(j) <- fresh el) prog.pipeline);
  { c_prog = prog;
    c_env = env;
    c_parser = compile_parser prog;
    c_accept = ccnt "parser.accept";
    c_reject = ccnt "parser.reject";
    c_error = ccnt "runtime.error";
    c_pipeline = pipeline }

let program t = t.c_prog
let env t = t.c_env

let run (t : t) pkt : Interp.result =
  let env = t.c_env in
  let verdict = Interp.fresh_verdict () in
  if not (parser_accepts t.c_parser pkt) then begin
    cc_bump env t.c_reject;
    verdict.Interp.dropped <- true;
    { Interp.verdict; parse_ok = false; runtime_error = None }
  end
  else begin
    cc_bump env t.c_accept;
    try
      for i = 0 to Array.length t.c_pipeline - 1 do
        match t.c_pipeline.(i) with
        | C_table ct -> exec_ctable env ct pkt verdict
        | C_block cb -> cb pkt no_args verdict
      done;
      { Interp.verdict; parse_ok = true; runtime_error = None }
    with Interp.Eval_error msg ->
      cc_bump env t.c_error;
      verdict.Interp.dropped <- true;
      { Interp.verdict; parse_ok = true; runtime_error = Some msg }
  end

(* -- Tier introspection (off the packet path) -------------------------- *)

type tier_stat = {
  ts_table : string;
  ts_capacity : int;
  ts_resident : int;
  ts_hits : int;
  ts_misses : int;
  ts_promotions : int;
  ts_evictions : int;
  ts_demotions : int;
}

(* Stats and warm-start act on current indexes, so bring stale ones up
   to the environment's generation first (exactly what the next packet
   would do). *)
let refresh_indexes t =
  Array.iter
    (function
      | C_table ct when ct.ct_gen <> t.c_env.Interp.rules_gen ->
        build_index t.c_env ct
      | _ -> ())
    t.c_pipeline

let find_ctable t name =
  let rec go i =
    if i >= Array.length t.c_pipeline then None
    else
      match t.c_pipeline.(i) with
      | C_table ct when String.equal ct.ct_table.tbl_name name -> Some ct
      | _ -> go (i + 1)
  in
  go 0

let tier_stats t =
  refresh_indexes t;
  Array.to_list t.c_pipeline
  |> List.filter_map (function
       | C_table { ct_table; ct_index = Tiered { td_cache = c; _ }; _ } ->
         Some
           { ts_table = ct_table.tbl_name;
             ts_capacity = State.Tier.capacity c;
             ts_resident = State.Tier.resident c;
             ts_hits = State.Tier.hits c;
             ts_misses = State.Tier.misses c;
             ts_promotions = State.Tier.promotions c;
             ts_evictions = State.Tier.evictions c;
             ts_demotions = State.Tier.demotions c }
       | _ -> None)

let tier_resident_keys t name =
  refresh_indexes t;
  match find_ctable t name with
  | Some { ct_index = Tiered { td_cache; _ }; _ } -> State.Tier.keys td_cache
  | _ -> []

(** Pre-fault [keys] into [name]'s device tier (migration warm start):
    each key's binding is resolved against the authoritative tier and
    promoted, without touching hit/miss telemetry of the packet path.
    Keys whose arity does not match the table are skipped. *)
let warm_table t name keys =
  refresh_indexes t;
  match find_ctable t name with
  | Some ({ ct_index = Tiered { td_auth; td_cache }; _ } as ct) ->
    let arity = List.length ct.ct_table.keys in
    List.iter
      (fun k ->
        if Array.length k = arity && not (State.Tier.mem td_cache k) then
          State.Tier.promote td_cache k (probe_auth td_auth k))
      keys
  | _ -> ()
