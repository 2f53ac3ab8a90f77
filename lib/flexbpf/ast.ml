(** Abstract syntax of FlexBPF, the paper's proposed DSL (§3.1).

    FlexBPF mixes match/action-style packet processing with eBPF-style
    instruction blocks over a constrained form of network state: logical
    key/value maps. Programs are deliberately restricted — bounded loops,
    no recursion, first-order state — so that they can be certified for
    bounded execution and compiled to constrained targets. *)

type width = int

type binop =
  | Add | Sub | Mul | Div | Mod
  | Band | Bor | Bxor | Shl | Shr
  | Eq | Neq | Lt | Le | Gt | Ge
  | Land | Lor

type unop = Not | Neg | Bnot

type hash_alg = Crc16 | Crc32 | Identity

type expr =
  | Const of int64
  | Field of string * string (* header.field *)
  | Meta of string (* per-packet metadata *)
  | Param of string (* action parameter, bound at rule install *)
  | Map_get of string * expr list
  | Bin of binop * expr * expr
  | Un of unop * expr
  | Hash of hash_alg * expr list
  | Time (* virtual time, microseconds *)

type stmt =
  | Nop
  | Set_field of string * string * expr
  | Set_meta of string * expr
  | Map_put of string * expr list * expr
  | Map_incr of string * expr list * expr (* returns nothing; adds delta *)
  | Map_del of string * expr list
  | If of expr * stmt list * stmt list
  | Loop of int * stmt list (* statically bounded repetition *)
  | Forward of expr (* set egress port *)
  | Drop
  | Punt of string (* send digest to the controller *)
  | Push_header of string
  | Pop_header of string
  | Call of string * expr list (* dRPC service invocation *)

type match_kind = Exact | Lpm | Ternary | Range

type action = { act_name : string; params : string list; body : stmt list }

type table = {
  tbl_name : string;
  keys : (expr * match_kind) list;
  tbl_actions : action list;
  default_action : string * int64 list;
  tbl_size : int; (* max entries *)
}

type block = { blk_name : string; blk_body : stmt list }

type element = Table of table | Block of block

let element_name = function
  | Table t -> t.tbl_name
  | Block b -> b.blk_name

(** Physical encodings of the logical key/value map (§3.1): vendor
    "extern" registers, PoF flow-state instruction sets, and
    Nvidia/Mellanox stateful tables. [Enc_auto] lets the compiler pick. *)
type map_encoding = Enc_auto | Enc_registers | Enc_flow_state | Enc_stateful_table

type map_decl = {
  map_name : string;
  key_arity : int;
  map_size : int; (* capacity in entries *)
  encoding : map_encoding;
}

type header_decl = { hdr_name : string; hdr_fields : (string * width) list }

(** A parser rule accepts packets whose header-name sequence starts with
    [pr_headers]. Adding/removing rules at runtime is how protocols are
    introduced and retired hitlessly (§2). *)
type parser_rule = { pr_name : string; pr_headers : string list }

type program = {
  prog_name : string;
  owner : string; (* "infra" or a tenant name *)
  headers : header_decl list;
  parser : parser_rule list;
  maps : map_decl list;
  pipeline : element list;
}

(** Runtime table contents, installed through the device API. *)
type pattern =
  | P_exact of int64
  | P_lpm of int64 * int (* value, prefix length (of 32) *)
  | P_ternary of int64 * int64 (* value, mask *)
  | P_range of int64 * int64 (* inclusive *)
  | P_any

type rule = {
  rule_priority : int; (* higher wins *)
  matches : pattern list; (* positional, one per table key *)
  rule_action : string;
  rule_args : int64 list;
}

(* Map names an element accesses, folded in pre-order: an access's map
   before the maps its key and value expressions access. Explicit
   recursion, so a walk allocates nothing beyond what [f] does. *)
let rec fold_expr_maps f acc = function
  | Map_get (m, keys) -> fold_exprs_maps f (f acc m) keys
  | Bin (_, a, b) -> fold_expr_maps f (fold_expr_maps f acc a) b
  | Un (_, e) -> fold_expr_maps f acc e
  | Hash (_, es) -> fold_exprs_maps f acc es
  | Const _ | Field _ | Meta _ | Param _ | Time -> acc

and fold_exprs_maps f acc = function
  | [] -> acc
  | e :: rest -> fold_exprs_maps f (fold_expr_maps f acc e) rest

let rec fold_stmt_maps f acc = function
  | Map_put (m, keys, v) | Map_incr (m, keys, v) ->
    fold_expr_maps f (fold_exprs_maps f (f acc m) keys) v
  | Map_del (m, keys) -> fold_exprs_maps f (f acc m) keys
  | If (c, th, el) ->
    fold_stmts_maps f (fold_stmts_maps f (fold_expr_maps f acc c) th) el
  | Loop (_, body) -> fold_stmts_maps f acc body
  | Set_field (_, _, e) | Set_meta (_, e) | Forward e -> fold_expr_maps f acc e
  | Call (_, args) -> fold_exprs_maps f acc args
  | Nop | Drop | Punt _ | Push_header _ | Pop_header _ -> acc

and fold_stmts_maps f acc = function
  | [] -> acc
  | s :: rest -> fold_stmts_maps f (fold_stmt_maps f acc s) rest

let fold_element_maps f acc = function
  | Table t ->
    let rec keys acc = function
      | [] -> acc
      | (e, _) :: rest -> keys (fold_expr_maps f acc e) rest
    in
    let rec actions acc = function
      | [] -> acc
      | a :: rest -> actions (fold_stmts_maps f acc a.body) rest
    in
    actions (keys acc t.keys) t.tbl_actions
  | Block b -> fold_stmts_maps f acc b.blk_body

let find_element prog name =
  List.find_opt (fun e -> element_name e = name) prog.pipeline

let find_table prog name =
  match find_element prog name with Some (Table t) -> Some t | _ -> None

let find_map prog name = List.find_opt (fun m -> m.map_name = name) prog.maps

let find_header prog name =
  List.find_opt (fun h -> h.hdr_name = name) prog.headers

let find_action (t : table) name =
  List.find_opt (fun a -> a.act_name = name) t.tbl_actions

(** Structural equality that ignores names — used to detect
    logically-sharable code across tenants (§3.2). *)
let same_logic a b =
  match a, b with
  | Table x, Table y ->
    x.keys = y.keys
    && List.map (fun a -> (a.params, a.body)) x.tbl_actions
       = List.map (fun a -> (a.params, a.body)) y.tbl_actions
  | Block x, Block y -> x.blk_body = y.blk_body
  | _ -> false
