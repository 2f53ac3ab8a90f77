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
      the AST dispatch paid at compile time; expressions pass values
      through a register file of unboxed words, and keys are word
      slices of it, so neither boxes;
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
    - the loop variable is staged into a word when the body provably
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

(* The verdict a run fills, and what the run itself set. The verdict
   is long-lived (one per compiled program), so a pointer store into it
   pays OCaml's write barrier: a run stores a field only when its value
   changes, and [finish] clears what the run did not set. *)
type out = {
  v : Interp.verdict;
  mutable forwarded : bool; (* a [Forward] ran in this run *)
  mutable punted : bool; (* a [Punt] ran in this run *)
}

(* Compiled forms. Closures take the action-argument array so one
   compiled body serves every rule of an action; blocks pass [no_args].
   An expression leaves its value in the register file (below). *)
type cexpr = Netsim.Packet.t -> int64 array -> unit
type cstmt = Netsim.Packet.t -> int64 array -> out -> unit

let no_args : int64 array = [||]

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

(* -- Register file -------------------------------------------------------

   Every compiled element (table or block) owns one [Bytes] register
   file. Each expression node, key word, staged loop variable and
   hoisted field read has its own word in it, fixed at compile time.
   Operands are read and results written with the unboxed 64-bit
   primitives, so arithmetic, hashes and map reads make no box; a box
   is made only where a value leaves into an [int64 ref] (a field or
   metadata write, the loop variable's publication). A file per
   element, not per program, lets an element reused by a recompile
   keep its closures and their file. *)

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Words an element can use: at most two per expression node (its own
   word, or its key word, plus a hoisted slot for a field read) and one
   per loop. *)
let rec expr_nodes = function
  | Const _ | Field _ | Meta _ | Param _ | Time -> 1
  | Map_get (_, es) | Hash (_, es) -> 1 + exprs_nodes es
  | Bin (_, a, b) -> 1 + expr_nodes a + expr_nodes b
  | Un (_, e) -> 1 + expr_nodes e

and exprs_nodes es = List.fold_left (fun n e -> n + expr_nodes e) 0 es

let rec stmt_words = function
  | Nop | Drop | Punt _ | Push_header _ | Pop_header _ -> 0
  | Set_field (_, _, e) | Set_meta (_, e) | Forward e -> 2 * expr_nodes e
  | Map_put (_, ks, e) | Map_incr (_, ks, e) -> 2 * (exprs_nodes ks + expr_nodes e)
  | Map_del (_, ks) | Call (_, ks) -> 2 * exprs_nodes ks
  | If (c, th, el) -> (2 * expr_nodes c) + stmts_words th + stmts_words el
  | Loop (_, body) -> 1 + stmts_words body

and stmts_words ss = List.fold_left (fun n s -> n + stmt_words s) 0 ss

type regs = { rf : Bytes.t; mutable next : int }

let regs words = { rf = Bytes.make (8 * max 1 words) '\000'; next = 0 }

(* -- Expressions ------------------------------------------------------ *)

(* [cparams] is the enclosing action's parameter list; a parameter
   compiles to its first slot (matching [List.assoc] on the combined
   list), an unbound one to a thunk raising the interpreter's error.
   [cloop] is the word of the innermost staged loop variable, when the
   loop body qualifies (see [loop_substitutable]); [chslots] the words
   of its hoisted field reads. *)
type cctx = {
  cenv : Interp.env;
  cparams : string list;
  cloop : int option;
  chslots : ((string * string) * int) list;
    (* loop-invariant field reads hoisted to words (see [leading_fields]) *)
  cregs : regs;
}

let context env words =
  { cenv = env; cparams = []; cloop = None; chslots = []; cregs = regs words }

(* [n] consecutive fresh words; the first one's index. *)
let alloc ctx n =
  let r = ctx.cregs in
  let i = r.next in
  if i + n > Bytes.length r.rf / 8 then invalid_arg "Compile: register file";
  r.next <- i + n;
  i

let nop : cexpr = fun _ _ -> ()

(* Run the non-[nop] codes left to right. *)
let seq (cs : cexpr list) : cexpr =
  match List.filter (fun c -> c != nop) cs with
  | [] -> nop
  | [ a ] -> a
  | [ a; b ] -> fun pkt args -> a pkt args; b pkt args
  | [ a; b; c ] -> fun pkt args -> a pkt args; b pkt args; c pkt args
  | cs ->
    let arr = Array.of_list cs in
    fun pkt args ->
      for i = 0 to Array.length arr - 1 do
        arr.(i) pkt args
      done

(* An operand: after [code] runs (nothing to run when it is [nop]),
   its value is at byte [at] of the register file. *)
type operand = { code : cexpr; at : int }

(* The word an expression already occupies in this context: the staged
   loop variable or a hoisted field slot. Pure and fault-free, so a
   consumer may read it in any order. *)
let cell_of ctx = function
  | Meta "_loop_i" -> ctx.cloop
  | Field (h, f) -> List.assoc_opt (h, f) ctx.chslots
  | _ -> None

let hash_prime = Interp.hash_prime
let[@inline] step h (v : int64) = (h lxor Int64.to_int v) * hash_prime

(* The hash fold over operand words, left to right. *)
let hash_fold r (at : int array) =
  let h = ref Interp.hash_init in
  for i = 0 to Array.length at - 1 do
    h := step !h (get r (Array.unsafe_get at i))
  done;
  !h

let field_into r o hname fname : cexpr =
  let fc = fcache () in
  let err () = error "packet lacks %s.%s" hname fname in
  fun pkt _ -> set r o !(field_cell fc hname fname pkt ~hdr_err:err ~fld_err:err)

let rec operand ctx (e : expr) : operand =
  match cell_of ctx e with
  | Some w -> { code = nop; at = 8 * w }
  | None ->
    let d = alloc ctx 1 in
    { code = compile_into ctx e d; at = 8 * d }

(* Code leaving [e]'s value at word [d]. Constants are written once,
   here: nothing else writes their word. *)
and compile_into ctx (e : expr) d : cexpr =
  let env = ctx.cenv and r = ctx.cregs.rf and o = 8 * d in
  match (cell_of ctx e, e) with
  | Some w, _ ->
    let s = 8 * w in
    fun _ _ -> set r o (get r s)
  | None, e ->
  match e with
  | Const v ->
    set r o v;
    nop
  | Field (h, f) -> field_into r o h f
  | Meta m -> fun pkt _ -> set r o (Netsim.Packet.meta_default pkt m 0L)
  | Param p ->
    let rec slot i = function
      | [] -> None
      | q :: _ when String.equal q p -> Some i
      | _ :: tl -> slot (i + 1) tl
    in
    (match slot 0 ctx.cparams with
     | Some i -> fun _ args -> set r o args.(i)
     | None -> fun _ _ -> error "unbound parameter $%s" p)
  | Map_get (m, keys) ->
    let mc = mcache m in
    let ck, k, n = compile_keys ctx keys in
    fun pkt args ->
      ck pkt args;
      State.read (mc_state env mc) r k n d
  | Bin (Land, a, b) ->
    let a = operand ctx a and b = operand ctx b in
    let ca = a.code and x = a.at and cb = b.code and y = b.at in
    fun pkt args ->
      ca pkt args;
      if Int64.equal (get r x) 0L then set r o 0L
      else begin
        cb pkt args;
        set r o (if Int64.equal (get r y) 0L then 0L else 1L)
      end
  | Bin (Lor, a, b) ->
    let a = operand ctx a and b = operand ctx b in
    let ca = a.code and x = a.at and cb = b.code and y = b.at in
    fun pkt args ->
      ca pkt args;
      if not (Int64.equal (get r x) 0L) then set r o 1L
      else begin
        cb pkt args;
        set r o (if Int64.equal (get r y) 0L then 0L else 1L)
      end
  | Bin (Mod, Hash (alg, es), Const w)
    when (match (alg, es) with Identity, [ _ ] -> false | _ -> true)
         && (not (Int64.equal w 0L))
         && Int64.equal (Int64.of_int (Int64.to_int w)) w ->
    (* hash → finish → mod fused into untagged int arithmetic (the
       sketch-column idiom). The interpreter computes
       [Int64.rem (of_int (finish h)) w]; the finished value is
       non-negative and int-sized and [w] is int-exact, so the native
       [mod] agrees. *)
    let wi = Int64.to_int w in
    let ops = List.map (operand ctx) es in
    let pre = seq (List.map (fun o -> o.code) ops) in
    let at = Array.of_list (List.map (fun o -> o.at) ops) in
    (match (alg, at) with
     (* all operands are cells (hoisted fields, the staged loop
        variable, constants): one closure, no operand calls — the
        sketch-row idiom [hash(i, flow...) mod width] in a compiled
        loop *)
     | (Crc32 | Identity), [| a; b; c; x |] when pre == nop ->
       fun _ _ ->
         let h = step Interp.hash_init (get r a) in
         let h = step h (get r b) in
         let h = step h (get r c) in
         let h = step h (get r x) in
         set r o (Int64.of_int ((Interp.hash_mix h land 0x7FFFFFFF) mod wi))
     | (Crc32 | Identity), [| a; b; c |] when pre == nop ->
       fun _ _ ->
         let h = step Interp.hash_init (get r a) in
         let h = step h (get r b) in
         let h = step h (get r c) in
         set r o (Int64.of_int ((Interp.hash_mix h land 0x7FFFFFFF) mod wi))
     | Crc16, _ ->
       fun pkt args ->
         pre pkt args;
         set r o
           (Int64.of_int
              (((Interp.hash_mix (hash_fold r at) lsr 16) land 0xFFFF) mod wi))
     | (Crc32 | Identity), _ ->
       fun pkt args ->
         pre pkt args;
         set r o
           (Int64.of_int
              ((Interp.hash_mix (hash_fold r at) land 0x7FFFFFFF) mod wi)))
  | Bin (op, a, b) ->
    let a = operand ctx a and b = operand ctx b in
    let pre = seq [ a.code; b.code ] and x = a.at and y = b.at in
    (* every operator specialised so no per-packet dispatch remains;
       left-to-right evaluation and div/mod-by-zero = 0 as in the
       interpreter *)
    (match op with
     | Add -> fun pkt args -> pre pkt args; set r o (Int64.add (get r x) (get r y))
     | Sub -> fun pkt args -> pre pkt args; set r o (Int64.sub (get r x) (get r y))
     | Mul -> fun pkt args -> pre pkt args; set r o (Int64.mul (get r x) (get r y))
     | Div ->
       fun pkt args ->
         pre pkt args;
         let v = get r y in
         if Int64.equal v 0L then set r o 0L else set r o (Int64.div (get r x) v)
     | Mod ->
       fun pkt args ->
         pre pkt args;
         let v = get r y in
         if Int64.equal v 0L then set r o 0L else set r o (Int64.rem (get r x) v)
     | Band ->
       fun pkt args -> pre pkt args; set r o (Int64.logand (get r x) (get r y))
     | Bor ->
       fun pkt args -> pre pkt args; set r o (Int64.logor (get r x) (get r y))
     | Bxor ->
       fun pkt args -> pre pkt args; set r o (Int64.logxor (get r x) (get r y))
     | Shl ->
       fun pkt args ->
         pre pkt args;
         set r o (Int64.shift_left (get r x) (Int64.to_int (get r y) land 63))
     | Shr ->
       fun pkt args ->
         pre pkt args;
         set r o
           (Int64.shift_right_logical (get r x) (Int64.to_int (get r y) land 63))
     | Eq ->
       fun pkt args ->
         pre pkt args;
         set r o (if Int64.equal (get r x) (get r y) then 1L else 0L)
     | Neq ->
       fun pkt args ->
         pre pkt args;
         set r o (if Int64.equal (get r x) (get r y) then 0L else 1L)
     | Lt ->
       fun pkt args ->
         pre pkt args;
         set r o (if Int64.compare (get r x) (get r y) < 0 then 1L else 0L)
     | Le ->
       fun pkt args ->
         pre pkt args;
         set r o (if Int64.compare (get r x) (get r y) <= 0 then 1L else 0L)
     | Gt ->
       fun pkt args ->
         pre pkt args;
         set r o (if Int64.compare (get r x) (get r y) > 0 then 1L else 0L)
     | Ge ->
       fun pkt args ->
         pre pkt args;
         set r o (if Int64.compare (get r x) (get r y) >= 0 then 1L else 0L)
     | Land | Lor -> assert false (* handled above *))
  | Un (op, e) ->
    let a = operand ctx e in
    let c = a.code and x = a.at in
    (match op with
     | Not ->
       fun pkt args ->
         c pkt args;
         set r o (if Int64.equal (get r x) 0L then 1L else 0L)
     | Neg -> fun pkt args -> c pkt args; set r o (Int64.neg (get r x))
     | Bnot -> fun pkt args -> c pkt args; set r o (Int64.lognot (get r x)))
  | Hash (Identity, [ e ]) -> compile_into ctx e d
  | Hash (alg, es) ->
    let ops = List.map (operand ctx) es in
    let pre = seq (List.map (fun o -> o.code) ops) in
    let at = Array.of_list (List.map (fun o -> o.at) ops) in
    (match alg with
     | Crc16 ->
       fun pkt args ->
         pre pkt args;
         set r o
           (Int64.of_int ((Interp.hash_mix (hash_fold r at) lsr 16) land 0xFFFF))
     | Crc32 | Identity ->
       fun pkt args ->
         pre pkt args;
         set r o (Int64.of_int (Interp.hash_mix (hash_fold r at) land 0x7FFFFFFF)))
  | Time -> fun _ _ -> set r o env.Interp.now_us

(* A key is a word slice [k, k+n) of the register file, evaluated left
   to right by one code; [State] reads the slice and copies it only on
   insert. Slices are per site, not per map, so a key that itself reads
   the same map ([incr m [get(m, k)] 1]) fills a different slice. Key
   words that are cells (the staged loop variable, hoisted fields) are
   copied in by the key's own code, with no closure call — pure and
   fault-free, so copying them first cannot reorder observable effects.
   The sketch-update idiom [incr cms [i, hash(...) mod w] 1] copies the
   loop variable and evaluates the column. *)
and compile_keys ctx keys : cexpr * int * int =
  let r = ctx.cregs.rf in
  let n = List.length keys in
  let k = alloc ctx n in
  let copies = List.filter_map (fun (i, e) ->
      Option.map (fun w -> (8 * w, 8 * (k + i))) (cell_of ctx e))
      (List.mapi (fun i e -> (i, e)) keys)
  in
  let pre =
    seq
      (List.mapi
         (fun i e -> if cell_of ctx e = None then compile_into ctx e (k + i) else nop)
         keys)
  in
  let code =
    match copies with
    | [] -> pre
    | [ (s, t) ] when pre == nop -> fun _ _ -> set r t (get r s)
    | [ (s, t) ] -> fun pkt args -> set r t (get r s); pre pkt args
    | cs ->
      let src = Array.of_list (List.map fst cs)
      and dst = Array.of_list (List.map snd cs) in
      fun pkt args ->
        for i = 0 to Array.length src - 1 do
          set r dst.(i) (get r src.(i))
        done;
        pre pkt args
  in
  (code, k, n)

(* -- Statements ------------------------------------------------------- *)

(* A loop body can run with its loop variable staged in a word (no
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
   reads hoisted into words filled once at loop entry. Soundness needs:
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

(* Boxes for the small values a field write usually stores (TTLs,
   flags, ports below 1024). [Int64] boxes are immutable, so a field
   cell may point into this table; any other value gets its own box. *)
let small_boxes = Array.init 1024 Int64.of_int

let[@inline] box (v : int64) =
  if Int64.compare v 0L >= 0 && Int64.compare v 1024L < 0 then
    Array.unsafe_get small_boxes (Int64.to_int v)
  else v

let rec compile_stmt ctx (s : stmt) : cstmt =
  let env = ctx.cenv and r = ctx.cregs.rf in
  match s with
  | Nop -> fun _ _ _ -> ()
  | Set_field (h, f, e) ->
    let { code; at } = operand ctx e in
    let fc = fcache () in
    (* messages match [Packet.set_field]'s Invalid_argument, which the
       interpreter rewraps as Eval_error *)
    let hdr_err () = error "Packet.set_field: no header %s" h in
    let fld_err () = error "Packet.set_field: no field %s.%s" h f in
    fun pkt args _ ->
      code pkt args;
      field_cell fc h f pkt ~hdr_err ~fld_err := box (get r at)
  | Set_meta (m, e) ->
    let { code; at } = operand ctx e in
    let mc = mcellc () in
    (* value evaluated before the cell is resolved: a fault in [e] must
       leave the metadata untouched, as in the interpreter *)
    fun pkt args _ ->
      code pkt args;
      mcell_set mc m pkt (get r at)
  | Map_put (m, keys, e) ->
    let mc = mcache m in
    let v = operand ctx e in
    let ck, k, n = compile_keys ctx keys in
    let cv = v.code and w = v.at / 8 in
    fun pkt args _ ->
      (* the interpreter evaluates the value expression before the keys
         and resolves the map last (OCaml right-to-left argument
         order); mirror it so fault precedence is identical *)
      cv pkt args;
      ck pkt args;
      State.write (mc_state env mc) r k n w
  | Map_incr (m, keys, e) ->
    let mc = mcache m in
    let v = operand ctx e in
    let ck, k, n = compile_keys ctx keys in
    let w = v.at / 8 in
    if v.code == nop then
      (* a constant delta, written once (the counter/sketch idiom) *)
      fun pkt args _ ->
        ck pkt args;
        State.add (mc_state env mc) r k n w
    else
      let cv = v.code in
      fun pkt args _ ->
        cv pkt args;
        ck pkt args;
        State.add (mc_state env mc) r k n w
  | Map_del (m, keys) ->
    let mc = mcache m in
    let ck, k, n = compile_keys ctx keys in
    fun pkt args _ ->
      ck pkt args;
      State.remove (mc_state env mc) r k n
  | If (c, th, el) ->
    let { code; at } = operand ctx c in
    let cth = compile_stmts ctx th in
    let cel = compile_stmts ctx el in
    fun pkt args out ->
      code pkt args;
      if Int64.equal (get r at) 0L then cel pkt args out
      else cth pkt args out
  | Loop (n, body) when n > 0 && loop_substitutable body ->
    let cell = alloc ctx 1 in
    let hoist = if body_hoistable body then leading_fields body else [] in
    let hslots = List.map (fun hf -> (hf, alloc ctx 1)) hoist in
    let getters =
      Array.of_list (List.map (fun ((h, f), w) -> field_into r (8 * w) h f) hslots)
    in
    let cbody =
      compile_stmts { ctx with cloop = Some cell; chslots = hslots } body
    in
    let c = 8 * cell and last = Int64.of_int (n - 1) in
    let mc = mcellc () in
    fun pkt args out ->
      (try
         (* hoisted reads fault as iteration 0 would; the variable is
            set first so the handler publishes the iteration the
            interpreter would have reached *)
         set r c 0L;
         for i = 0 to Array.length getters - 1 do
           getters.(i) pkt args
         done;
         for i = 0 to n - 1 do
           set r c (Int64.of_int i);
           cbody pkt args out
         done
       with e ->
         (* a fault escapes mid-loop: publish the iteration the
            interpreter would have left in the metadata *)
         mcell_set mc "_loop_i" pkt (get r c);
         raise e);
      mcell_set mc "_loop_i" pkt last
  | Loop (n, body) ->
    let cbody = compile_stmts { ctx with cloop = None } body in
    let ivals = Array.init (max n 0) Int64.of_int in
    let mc = mcellc () in
    fun pkt args out ->
      for i = 0 to n - 1 do
        mcell_set mc "_loop_i" pkt ivals.(i);
        cbody pkt args out
      done
  | Forward e ->
    let { code; at } = operand ctx e in
    fun pkt args out ->
      code pkt args;
      let p = some_port (Int64.to_int (get r at)) in
      out.forwarded <- true;
      if out.v.Interp.egress != p then out.v.Interp.egress <- p
  | Drop -> fun _ _ out -> out.v.Interp.dropped <- true
  | Punt digest ->
    (* the first punt of a run (usually the only one) leaves a list
       built here; a later one conses onto it *)
    let single = [ digest ] in
    fun pkt _ out ->
      if out.punted then out.v.Interp.punts <- digest :: out.v.Interp.punts
      else begin
        out.punted <- true;
        if out.v.Interp.punts != single then out.v.Interp.punts <- single
      end;
      env.Interp.punt digest pkt
  | Push_header h ->
    fun pkt _ _ ->
      Netsim.Packet.push_header pkt { Netsim.Packet.hname = h; fields = [] }
  | Pop_header h -> fun pkt _ _ -> Netsim.Packet.pop_header pkt h
  | Call (svc, argexprs) ->
    let ck, k, n = compile_keys ctx argexprs in
    let meta_key = "drpc_" ^ svc in (* interned once, not per packet *)
    let mc = mcellc () in
    fun pkt args _ ->
      ck pkt args;
      let result = env.Interp.drpc svc (List.init n (fun i -> get r (8 * (k + i)))) in
      mcell_set mc meta_key pkt result

and compile_stmts ctx stmts : cstmt =
  match List.map (compile_stmt ctx) stmts with
  | [] -> fun _ _ _ -> ()
  | [ c ] -> c
  | cs ->
    let arr = Array.of_list cs in
    fun pkt args out ->
      for i = 0 to Array.length arr - 1 do
        arr.(i) pkt args out
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
  ct_regs : Bytes.t; (* the table's register file *)
  ct_keys : cexpr; (* fills the key: words [ct_key, ct_key + ct_arity) *)
  ct_key : int;
  ct_arity : int;
  ct_default : Netsim.Packet.t -> out -> unit;
  (* resolves a rule's (action, args) to its body and argument array *)
  ct_bind : string -> int64 list -> cstmt * int64 array;
  mutable ct_index : index;
  mutable ct_gen : int; (* env.rules_gen the index was built against *)
}

(** Compile an action body once; [bind] then pairs it with a rule's
    argument array. Arity mismatches and unknown actions keep the
    interpreter's behaviour: the error fires if and when the rule is
    selected, after the hit counter is bumped. *)
let compile_action_binder ctx (t : table) =
  let compiled =
    List.map
      (fun a ->
        ( a.act_name,
          List.length a.params,
          compile_stmts { ctx with cparams = a.params } a.body ))
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
      (* each rule's key is written into one buffer, which the index
         copies on insert: a rebuild makes no garbage per rule *)
      let kb = Bytes.create (8 * max 1 arity) in
      (* first in sorted order wins a duplicate key tuple *)
      List.iter
        (fun pre ->
          for i = 0 to arity - 1 do
            match pre.pre_matches.(i) with
            | P_exact v -> set kb (8 * i) v
            | _ -> assert false
          done;
          if not (State.Key_tbl.mem h kb 0 arity) then
            State.Key_tbl.add h kb 0 arity pre)
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
  let keys = List.map fst t.keys in
  let ctx =
    context env
      (List.fold_left
         (fun n a -> n + stmts_words a.body)
         (2 * exprs_nodes keys) t.tbl_actions)
  in
  let ct_keys, ct_key, ct_arity = compile_keys ctx keys in
  let bind = compile_action_binder ctx t in
  let default_name, default_args = t.default_action in
  { ct_table = t;
    ct_hit = ccnt (t.tbl_name ^ ".hit");
    ct_miss = ccnt (t.tbl_name ^ ".miss");
    ct_regs = ctx.cregs.rf;
    ct_keys;
    ct_key;
    ct_arity;
    ct_default =
      (let body, args = bind default_name default_args in
       fun pkt out -> body pkt args out);
    ct_bind = bind;
    ct_index = Scan [||];
    ct_gen = -1 }

(* [Interp.match_pattern] on a key word, read unboxed. *)
let[@inline] match_word (v : int64) = function
  | P_any -> true
  | P_exact x -> Int64.equal v x
  | P_lpm (x, len) ->
    len = 0
    ||
    let shift = 32 - len in
    Int64.equal
      (Int64.shift_right_logical v shift)
      (Int64.shift_right_logical x shift)
  | P_ternary (x, mask) -> Int64.equal (Int64.logand v mask) (Int64.logand x mask)
  | P_range (lo, hi) -> Int64.compare v lo >= 0 && Int64.compare v hi <= 0

(* The key is words [k, k+n) of [r], as everywhere below. *)
let rec matches_from (pm : pattern array) r k i =
  i >= Array.length pm
  || (match_word (get r (8 * (k + i))) (Array.unsafe_get pm i)
      && matches_from pm r k (i + 1))

let rec scan_from (arr : prepared array) r k n i =
  if i >= Array.length arr then no_rule
  else
    let pre = arr.(i) in
    if Array.length pre.pre_matches = n && matches_from pre.pre_matches r k 0
    then pre
    else scan_from arr r k n (i + 1)

(* Authoritative (host-tier) probe; [no_rule] when nothing matches. *)
let probe_auth auth r k n =
  match auth with
  | Hash_index h ->
    (match State.Key_tbl.find h r k n with
     | pre -> pre
     | exception Not_found -> no_rule)
  | Scan arr -> scan_from arr r k n 0
  | Tiered _ -> assert false (* td_auth is never itself tiered *)

let exec_ctable env (ct : ctable) pkt out =
  if ct.ct_gen <> env.Interp.rules_gen then build_index env ct;
  (* key expressions are always evaluated, rules installed or not — a
     missing header must fault exactly as in the interpreter — and
     exactly once: key evaluation may touch maps (LRU ticks),
     observable through State semantics *)
  ct.ct_keys pkt no_args;
  let r = ct.ct_regs and k = ct.ct_key and n = ct.ct_arity in
  let selected =
    match ct.ct_index with
    | Tiered { td_auth; td_cache } ->
      (match State.Tier.find td_cache r k n with
       | memo -> memo (* device-tier hit *)
       | exception Not_found ->
         (* device-tier fault: the authoritative lookup serves the
            packet (slow path), and the binding is paged in. With no
            paging runtime it is promoted in place, from the key's
            words. A runtime's hook may commit after later packets
            have refilled the key words, so it gets a copy; the
            commit closure re-checks the generation so a promotion
            that lands after a rule change (async dRPC) is dropped,
            not applied stale: the generation moves before any
            rebuild replaces the index, so an unchanged one proves
            the index and its device tier are the ones faulted on. *)
         let winner = probe_auth td_auth r k n in
         (match env.Interp.page_in with
          | None -> State.Tier.promote td_cache r k n winner
          | Some page_in ->
            let gen = ct.ct_gen in
            let key = Bytes.sub r (8 * k) (8 * n) in
            page_in ct.ct_table.tbl_name key (fun () ->
                if ct.ct_gen = gen && env.Interp.rules_gen = gen then
                  match ct.ct_index with
                  | Tiered { td_cache; _ } ->
                    State.Tier.promote td_cache key 0 n winner
                  | _ -> ()));
         winner)
    | auth -> probe_auth auth r k n
  in
  if selected != no_rule then begin
    cc_bump env ct.ct_hit;
    selected.pre_body pkt selected.pre_args out
  end
  else begin
    cc_bump env ct.ct_miss;
    ct.ct_default pkt out
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

(* A compiled program owns the verdict its runs fill and the two
   results that carry it without a fault, so a run allocates nothing.
   A result is therefore valid until the program's next run. *)
type t = {
  c_prog : program;
  c_env : Interp.env;
  c_parser : cparser;
  c_accept : ccnt;
  c_reject : ccnt;
  c_error : ccnt;
  c_pipeline : celement array;
  c_out : out;
  c_accepted : Interp.result; (* parsed, no fault *)
  c_rejected : Interp.result; (* the parser rejected the packet *)
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
  let fresh = function
    | Table tbl -> C_table (compile_table env tbl)
    | Block b ->
      C_block (compile_stmts (context env (stmts_words b.blk_body)) b.blk_body)
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
  let verdict = Interp.fresh_verdict () in
  { c_prog = prog;
    c_env = env;
    c_parser = compile_parser prog;
    c_accept = ccnt "parser.accept";
    c_reject = ccnt "parser.reject";
    c_error = ccnt "runtime.error";
    c_pipeline = pipeline;
    c_out = { v = verdict; forwarded = false; punted = false };
    c_accepted = { Interp.verdict; parse_ok = true; runtime_error = None };
    c_rejected = { Interp.verdict; parse_ok = false; runtime_error = None } }

let program t = t.c_prog
let env t = t.c_env

(* Clear what the run did not set: no forward leaves no egress, no
   punt no digests. *)
let finish out =
  let v = out.v in
  if (not out.forwarded) && v.Interp.egress != None then v.Interp.egress <- None;
  if (not out.punted) && v.Interp.punts != [] then v.Interp.punts <- []

let run (t : t) pkt : Interp.result =
  let env = t.c_env and out = t.c_out in
  let verdict = out.v in
  out.forwarded <- false;
  out.punted <- false;
  verdict.Interp.dropped <- false;
  if not (parser_accepts t.c_parser pkt) then begin
    cc_bump env t.c_reject;
    verdict.Interp.dropped <- true;
    finish out;
    t.c_rejected
  end
  else begin
    cc_bump env t.c_accept;
    try
      for i = 0 to Array.length t.c_pipeline - 1 do
        match t.c_pipeline.(i) with
        | C_table ct -> exec_ctable env ct pkt out
        | C_block cb -> cb pkt no_args out
      done;
      finish out;
      t.c_accepted
    with Interp.Eval_error msg ->
      cc_bump env t.c_error;
      verdict.Interp.dropped <- true;
      finish out;
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
        let b = State.pack k in
        if Array.length k = arity && not (State.Tier.mem td_cache b 0 arity)
        then State.Tier.promote td_cache b 0 arity (probe_auth td_auth b 0 arity))
      keys
  | _ -> ()
