(** Reference interpreter for FlexBPF.

    All simulated targets share these functional semantics — the paper's
    architectures differ in resources, performance, and reconfiguration
    behaviour, not in what a match/action program means. Division and
    modulo by zero yield 0 (eBPF semantics), keeping every program total
    so the bounded-execution certificate is honest. *)

open Ast

exception Eval_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

(** Execution environment of one program instance on one device. *)
type env = {
  maps : (string, State.t) Hashtbl.t;
  rules : (string, rule list) Hashtbl.t; (* table -> installed rules *)
  tables : (string, table) Hashtbl.t; (* table declarations, for validation *)
  mutable rules_gen : int; (* bumped on every rule install/remove *)
  mutable maps_gen : int; (* bumped whenever a map binding is (re)placed *)
  mutable now_us : int64; (* virtual time, set by the device before exec *)
  mutable punt : string -> Netsim.Packet.t -> unit;
  mutable drpc : string -> int64 list -> int64;
  tier_caps : (string, int) Hashtbl.t;
      (* table -> device-tier capacity (rules). Absent: the table's
         whole rule set is device-resident (today's flat store). The
         compiled fast path (Compile) tiers its rule index accordingly;
         this reference interpreter ignores it — it IS the unbounded
         host tier. *)
  mutable page_in : (string -> Bytes.t -> (unit -> unit) -> unit) option;
      (* demand-paging hook: [page_in table key commit] asks the
         runtime to fault [key]'s binding into [table]'s device tier;
         calling [commit] performs the promotion. [key] is a flat copy
         the hook may keep (an async commit), its words filling the
         buffer. [None] (the default) promotes in place at the fault,
         with no copy and no closure (deterministic, no runtime);
         [Runtime.Drpc] sets a hook so promotion rides the dRPC
         timeout/backoff machinery — a dropped page means no
         promotion, never a wrong result. *)
  mutable stats : Obs.Metrics.t;
  mutable work : int;
      (* cumulative executed work units, on the [Analysis.stmt_cost]
         scale — comparable against the static WCET certificate *)
}

let create_env ?(default_encoding = State.Stateful_table) (prog : program) =
  let maps = Hashtbl.create 8 in
  List.iter
    (fun decl ->
      Hashtbl.replace maps decl.map_name
        (State.of_decl decl ~default:default_encoding ()))
    prog.maps;
  let rules = Hashtbl.create 8 in
  let tables = Hashtbl.create 8 in
  List.iter
    (function
      | Table t ->
        Hashtbl.replace rules t.tbl_name [];
        Hashtbl.replace tables t.tbl_name t
      | Block _ -> ())
    prog.pipeline;
  { maps; rules; tables; rules_gen = 0; maps_gen = 0; now_us = 0L;
    punt = (fun _ _ -> ());
    drpc = (fun _ _ -> 0L);
    tier_caps = Hashtbl.create 4;
    page_in = None;
    stats = Obs.Metrics.create (); work = 0 }

let env_map env name =
  match Hashtbl.find_opt env.maps name with
  | Some m -> m
  | None -> error "no map %s" name

(* All rebinding of map names goes through these two so [maps_gen]
   stays truthful — the compiled fast path caches [State.t] handles
   against it. *)
let set_env_map env name st =
  Hashtbl.replace env.maps name st;
  env.maps_gen <- env.maps_gen + 1

let remove_env_map env name =
  Hashtbl.remove env.maps name;
  env.maps_gen <- env.maps_gen + 1

(** Make a table known to the environment (rule storage plus the
    declaration used for install-time validation). Idempotent. *)
let register_table env (t : table) =
  if not (Hashtbl.mem env.rules t.tbl_name) then
    Hashtbl.replace env.rules t.tbl_name [];
  Hashtbl.replace env.tables t.tbl_name t

let unregister_table env name =
  Hashtbl.remove env.rules name;
  Hashtbl.remove env.tables name;
  env.rules_gen <- env.rules_gen + 1

let install_rule env table rule =
  (match Hashtbl.find_opt env.tables table with
   | Some t when List.length rule.matches <> List.length t.keys ->
     error "table %s: rule has %d match patterns but the table has %d keys"
       table (List.length rule.matches) (List.length t.keys)
   | _ -> ());
  let existing = Option.value (Hashtbl.find_opt env.rules table) ~default:[] in
  Hashtbl.replace env.rules table (rule :: existing);
  env.rules_gen <- env.rules_gen + 1

let remove_rules env table pred =
  let existing = Option.value (Hashtbl.find_opt env.rules table) ~default:[] in
  Hashtbl.replace env.rules table (List.filter (fun r -> not (pred r)) existing);
  env.rules_gen <- env.rules_gen + 1

let table_rules env table =
  Option.value (Hashtbl.find_opt env.rules table) ~default:[]

(** Bound [table]'s device tier to [cap] rules ([cap <= 0] restores the
    unbounded flat store). Bumps [rules_gen] so the compiled fast path
    rebuilds the table's index under the new residency. *)
let set_tier_capacity env table cap =
  if cap <= 0 then Hashtbl.remove env.tier_caps table
  else Hashtbl.replace env.tier_caps table cap;
  env.rules_gen <- env.rules_gen + 1

let tier_capacity env table = Hashtbl.find_opt env.tier_caps table

(** Outcome of running a pipeline on one packet. [Forward]/[Drop] do not
    short-circuit (P4 semantics: later elements may override). *)
type verdict = {
  mutable egress : int option;
  mutable dropped : bool;
  mutable punts : string list;
}

let fresh_verdict () = { egress = None; dropped = false; punts = [] }

let truthy v = v <> 0L
let of_bool b = if b then 1L else 0L

(* FNV-1a over native ints with a murmur-style finaliser: the hash runs
   per packet in sketches and ECMP, so the fold is kept entirely in
   untagged [int] arithmetic — [Int64] intermediates would box on every
   step (and the polymorphic [Hashtbl.hash] walks the list structure).
   [Int64.to_int] keeps the low 63 bits; the dropped sign bit only
   costs spread on values differing solely in bit 63. Only determinism
   and spread are promised, not any wire CRC polynomial. *)
let hash_init = 0x1A2B3C4D5E6F

let hash_prime = 0x100000001b3
let hash_step h (v : int64) = (h lxor Int64.to_int v) * hash_prime

let hash_mix h =
  let h = h lxor (h lsr 33) in
  let h = h * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

let crc16_finish h = Int64.of_int ((hash_mix h lsr 16) land 0xFFFF)
let crc32_finish h = Int64.of_int (hash_mix h land 0x7FFFFFFF)

let hash_all data = List.fold_left hash_step hash_init data
let crc16 data = crc16_finish (hash_all data)
let crc32 data = crc32_finish (hash_all data)

let rec eval env ~params pkt = function
  | Const v -> v
  | Field (h, f) ->
    (match Netsim.Packet.field pkt h f with
     | Some v -> v
     | None -> error "packet lacks %s.%s" h f)
  | Meta m -> Netsim.Packet.meta_default pkt m 0L
  | Param p ->
    (match List.assoc_opt p params with
     | Some v -> v
     | None -> error "unbound parameter $%s" p)
  | Map_get (m, keys) ->
    State.get (env_map env m) (eval_key env ~params pkt keys)
  (* logical operators short-circuit, so a guard like
     [has_vlan && vlan.vid == N] never evaluates fields of absent
     headers *)
  | Bin (Land, a, b) ->
    if truthy (eval env ~params pkt a) then
      of_bool (truthy (eval env ~params pkt b))
    else 0L
  | Bin (Lor, a, b) ->
    if truthy (eval env ~params pkt a) then 1L
    else of_bool (truthy (eval env ~params pkt b))
  | Bin (op, a, b) ->
    let x = eval env ~params pkt a in
    let y = eval env ~params pkt b in
    eval_binop op x y
  | Un (op, e) ->
    let x = eval env ~params pkt e in
    (match op with
     | Not -> of_bool (not (truthy x))
     | Neg -> Int64.neg x
     | Bnot -> Int64.lognot x)
  | Hash (alg, es) ->
    let data = List.map (eval env ~params pkt) es in
    (match alg with
     | Crc16 -> crc16 data
     | Crc32 -> crc32 data
     | Identity -> (match data with [ x ] -> x | _ -> crc32 data))
  | Time -> env.now_us

(* Map keys left to right, as the compiled path fills its buffers. *)
and eval_key env ~params pkt keys =
  Array.of_list (List.map (eval env ~params pkt) keys)

and eval_binop op x y =
  match op with
  | Add -> Int64.add x y
  | Sub -> Int64.sub x y
  | Mul -> Int64.mul x y
  | Div -> if y = 0L then 0L else Int64.div x y
  | Mod -> if y = 0L then 0L else Int64.rem x y
  | Band -> Int64.logand x y
  | Bor -> Int64.logor x y
  | Bxor -> Int64.logxor x y
  | Shl -> Int64.shift_left x (Int64.to_int y land 63)
  | Shr -> Int64.shift_right_logical x (Int64.to_int y land 63)
  | Eq -> of_bool (x = y)
  | Neq -> of_bool (x <> y)
  | Lt -> of_bool (x < y)
  | Le -> of_bool (x <= y)
  | Gt -> of_bool (x > y)
  | Ge -> of_bool (x >= y)
  | Land -> of_bool (truthy x && truthy y)
  | Lor -> of_bool (truthy x || truthy y)

(* Each executed statement charges [env.work] with its
   [Analysis.stmt_cost] weight, so a run's work delta is directly
   comparable against the static WCET certificate ([Dataflow.Cost]). *)
let rec exec_stmt env ~params pkt verdict = function
  | Nop -> ()
  | Set_field (h, f, e) ->
    env.work <- env.work + 1;
    let v = eval env ~params pkt e in
    (try Netsim.Packet.set_field pkt h f v
     with Invalid_argument m -> error "%s" m)
  | Set_meta (m, e) ->
    env.work <- env.work + 1;
    Netsim.Packet.set_meta pkt m (eval env ~params pkt e)
  | Map_put (m, keys, e) ->
    env.work <- env.work + 2;
    State.put (env_map env m)
      (eval_key env ~params pkt keys)
      (eval env ~params pkt e)
  | Map_incr (m, keys, e) ->
    env.work <- env.work + 2;
    State.incr (env_map env m)
      (eval_key env ~params pkt keys)
      (eval env ~params pkt e)
  | Map_del (m, keys) ->
    env.work <- env.work + 2;
    State.del (env_map env m) (eval_key env ~params pkt keys)
  | If (c, th, el) ->
    env.work <- env.work + 1;
    if truthy (eval env ~params pkt c) then exec_stmts env ~params pkt verdict th
    else exec_stmts env ~params pkt verdict el
  | Loop (n, body) ->
    env.work <- env.work + 1;
    for i = 0 to n - 1 do
      Netsim.Packet.set_meta pkt "_loop_i" (Int64.of_int i);
      exec_stmts env ~params pkt verdict body
    done
  (* [Drop] is sticky: once a guard (ACL, firewall, TTL) has dropped
     the packet, a later table's forward cannot resurrect it. *)
  | Forward e ->
    env.work <- env.work + 1;
    verdict.egress <- Some (Int64.to_int (eval env ~params pkt e))
  | Drop ->
    env.work <- env.work + 1;
    verdict.dropped <- true
  | Punt digest ->
    env.work <- env.work + 1;
    verdict.punts <- digest :: verdict.punts;
    env.punt digest pkt
  | Push_header h ->
    env.work <- env.work + 1;
    Netsim.Packet.push_header pkt { Netsim.Packet.hname = h; fields = [] }
  | Pop_header h ->
    env.work <- env.work + 1;
    Netsim.Packet.pop_header pkt h
  | Call (svc, args) ->
    env.work <- env.work + 4;
    let result = env.drpc svc (List.map (eval env ~params pkt) args) in
    Netsim.Packet.set_meta pkt ("drpc_" ^ svc) result

and exec_stmts env ~params pkt verdict stmts =
  List.iter (exec_stmt env ~params pkt verdict) stmts

(* Rule matching ----------------------------------------------------- *)

let match_pattern value = function
  | P_any -> true
  | P_exact v -> value = v
  | P_lpm (v, len) ->
    if len = 0 then true
    else begin
      let shift = 32 - len in
      Int64.shift_right_logical value shift
      = Int64.shift_right_logical v shift
    end
  | P_ternary (v, mask) -> Int64.logand value mask = Int64.logand v mask
  | P_range (lo, hi) -> value >= lo && value <= hi

(** LPM specificity contributes to rule ordering: longest prefix wins
    within equal priorities. *)
let rule_specificity r =
  List.fold_left
    (fun acc -> function P_lpm (_, len) -> acc + len | _ -> acc)
    0 r.matches

let select_rule env (t : table) ~params:_ pkt =
  let key_values =
    List.map (fun (e, _) -> eval env ~params:[] pkt e) t.keys
  in
  let candidates =
    table_rules env t.tbl_name
    |> List.filter (fun r ->
           List.length r.matches = List.length key_values
           && List.for_all2 match_pattern key_values r.matches)
  in
  match
    List.stable_sort
      (fun a b ->
        match Int.compare b.rule_priority a.rule_priority with
        | 0 -> Int.compare (rule_specificity b) (rule_specificity a)
        | c -> c)
      candidates
  with
  | r :: _ -> Some r
  | [] -> None

let exec_table env pkt verdict (t : table) =
  (* lookup charge mirrors [Analysis.table_cost]: 1 + one per key *)
  env.work <- env.work + 1 + List.length t.keys;
  let action_name, args =
    match select_rule env t ~params:[] pkt with
    | Some r ->
      Obs.Metrics.incr env.stats (t.tbl_name ^ ".hit");
      (r.rule_action, r.rule_args)
    | None ->
      Obs.Metrics.incr env.stats (t.tbl_name ^ ".miss");
      t.default_action
  in
  match find_action t action_name with
  | None -> error "table %s: action %s missing" t.tbl_name action_name
  | Some a ->
    let params =
      try List.combine a.params args
      with Invalid_argument _ ->
        error "table %s: action %s arity mismatch" t.tbl_name action_name
    in
    exec_stmts env ~params pkt verdict a.body

(* Parser ------------------------------------------------------------ *)

let rec list_prefix prefix l =
  match prefix, l with
  | [], _ -> true
  | _, [] -> false
  | p :: ps, x :: xs -> p = x && list_prefix ps xs

let parse_accepts (prog : program) pkt =
  let names = List.map (fun h -> h.Netsim.Packet.hname) pkt.Netsim.Packet.headers in
  List.exists (fun r -> list_prefix r.pr_headers names) prog.parser

(* Whole program ----------------------------------------------------- *)

type result = {
  verdict : verdict;
  parse_ok : bool;
  runtime_error : string option;
}

let run env (prog : program) pkt =
  let verdict = fresh_verdict () in
  if not (parse_accepts prog pkt) then begin
    Obs.Metrics.incr env.stats "parser.reject";
    verdict.dropped <- true;
    { verdict; parse_ok = false; runtime_error = None }
  end
  else begin
    Obs.Metrics.incr env.stats "parser.accept";
    try
      List.iter
        (function
          | Table t -> exec_table env pkt verdict t
          | Block b -> exec_stmts env ~params:[] pkt verdict b.blk_body)
        prog.pipeline;
      { verdict; parse_ok = true; runtime_error = None }
    with Eval_error msg ->
      Obs.Metrics.incr env.stats "runtime.error";
      verdict.dropped <- true;
      { verdict; parse_ok = true; runtime_error = Some msg }
  end

(** Run a single block outside a pipeline — used for host-side offloads
    such as interpreted congestion-control programs. *)
let run_block env (b : block) pkt =
  let verdict = fresh_verdict () in
  try
    exec_stmts env ~params:[] pkt verdict b.blk_body;
    { verdict; parse_ok = true; runtime_error = None }
  with Eval_error msg ->
    verdict.dropped <- true;
    { verdict; parse_ok = true; runtime_error = Some msg }
