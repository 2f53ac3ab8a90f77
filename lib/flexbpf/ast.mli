(** Abstract syntax of FlexBPF, the paper's proposed DSL (§3.1).

    FlexBPF mixes match/action-style packet processing with eBPF-style
    instruction blocks over a constrained form of network state: logical
    key/value maps. Programs are deliberately restricted — bounded
    loops, no recursion, first-order state — so they can be certified
    for bounded execution ([Analysis.certify]) and compiled to
    constrained targets. *)

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
  | Map_incr of string * expr list * expr
  | Map_del of string * expr list
  | If of expr * stmt list * stmt list
  | Loop of int * stmt list (* statically bounded repetition *)
  | Forward of expr (* set egress port *)
  | Drop
  | Punt of string (* send a digest to the controller *)
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

val element_name : element -> string

(** Physical encodings of the logical key/value map (§3.1): vendor
    "extern" registers, PoF flow-state instruction sets, and Mellanox
    stateful tables. [Enc_auto] lets the compiler pick per target. *)
type map_encoding = Enc_auto | Enc_registers | Enc_flow_state | Enc_stateful_table

type map_decl = {
  map_name : string;
  key_arity : int;
  map_size : int; (* capacity in entries *)
  encoding : map_encoding;
}

type header_decl = { hdr_name : string; hdr_fields : (string * width) list }

(** A parser rule accepts packets whose header-name sequence starts
    with [pr_headers]. Adding/removing rules at runtime is how
    protocols are introduced and retired hitlessly (§2). *)
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

(** Fold over the names of the maps an element accesses, in pre-order
    (an access's map before the maps its expressions access), repeats
    included. *)
val fold_element_maps : ('a -> string -> 'a) -> 'a -> element -> 'a

val find_element : program -> string -> element option
val find_table : program -> string -> table option
val find_map : program -> string -> map_decl option
val find_header : program -> string -> header_decl option
val find_action : table -> string -> action option

(** Structural equality that ignores element names — used to detect
    logically-sharable code across tenants (§3.2). *)
val same_logic : element -> element -> bool
