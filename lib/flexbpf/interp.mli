(** Reference interpreter for FlexBPF.

    All simulated targets share these functional semantics — the
    paper's architectures differ in resources, performance, and
    reconfiguration behaviour, not in what a match/action program
    means. Division and modulo by zero yield 0 (eBPF semantics), so
    every certified program is total. *)

exception Eval_error of string

(** Execution environment of one program instance on one device:
    instantiated maps, installed rules, clock, and the punt/dRPC
    callbacks wired by the runtime. *)
type env = {
  maps : (string, State.t) Hashtbl.t;
  rules : (string, Ast.rule list) Hashtbl.t; (* table -> installed rules *)
  tables : (string, Ast.table) Hashtbl.t; (* table declarations, for validation *)
  mutable rules_gen : int; (* bumped on every rule install/remove; the
                              compiled fast path (Compile) watches this to
                              keep its rule indexes consistent *)
  mutable maps_gen : int; (* bumped whenever a map name is (re)bound;
                             Compile revalidates cached State.t handles
                             against it *)
  mutable now_us : int64; (* virtual time, set by the device before exec *)
  mutable punt : string -> Netsim.Packet.t -> unit;
  mutable drpc : string -> int64 list -> int64;
  tier_caps : (string, int) Hashtbl.t;
      (* table -> device-tier capacity in rules; absent = unbounded
         flat store. Only the compiled fast path tiers its index — the
         interpreter is the authoritative (host-tier) reference. *)
  mutable page_in : (string -> Bytes.t -> (unit -> unit) -> unit) option;
      (* demand-paging hook: [page_in table key commit]; [commit]
         performs the promotion into the device tier. [key] is the
         caller's own flat copy (the key's words fill the buffer), so
         the hook may hold it past the call.
         [None] (the default): a fault promotes in place, straight
         from the key's words, allocating nothing.
         [Runtime.Drpc.bind_paging] sets a hook that routes the
         promotion over dRPC, so drops delay promotion, never
         correctness. *)
  mutable stats : Obs.Metrics.t;
  mutable work : int;
      (* cumulative executed work units on the [Analysis.stmt_cost]
         scale; the delta across a run is the measured counterpart of
         the static WCET certificate ([Dataflow.Cost]) *)
}

(** Instantiate maps (resolving [Enc_auto] to [default_encoding]) and
    empty rule sets for a program. *)
val create_env : ?default_encoding:State.concrete -> Ast.program -> env

(** @raise Eval_error when the map does not exist. *)
val env_map : env -> string -> State.t

(** (Re)bind a map name. Replacing a binding through this (rather than
    touching [env.maps] directly) bumps [maps_gen], which keeps the
    compiled fast path's cached map handles coherent. *)
val set_env_map : env -> string -> State.t -> unit

(** Drop a map binding, bumping [maps_gen]. *)
val remove_env_map : env -> string -> unit

(** Make a table known to the environment (rule storage plus the
    declaration used for install-time validation). Idempotent. *)
val register_table : env -> Ast.table -> unit

(** Forget a table's rules and declaration. *)
val unregister_table : env -> string -> unit

(** @raise Eval_error when the rule's match-pattern count differs from
    the (registered) table's key count — such a rule could never match. *)
val install_rule : env -> string -> Ast.rule -> unit

val remove_rules : env -> string -> (Ast.rule -> bool) -> unit
val table_rules : env -> string -> Ast.rule list

(** Bound [table]'s device tier to [cap] rules; [cap <= 0] restores the
    unbounded flat store. Bumps [rules_gen] so compiled indexes rebuild
    under the new residency. *)
val set_tier_capacity : env -> string -> int -> unit

val tier_capacity : env -> string -> int option

(** Outcome of running a pipeline on one packet. [Drop] is sticky:
    once set, later forwards cannot resurrect the packet. *)
type verdict = {
  mutable egress : int option;
  mutable dropped : bool;
  mutable punts : string list;
}

val fresh_verdict : unit -> verdict

(** Total binary operator semantics (division by zero yields 0). *)
val eval_binop : Ast.binop -> int64 -> int64 -> int64

val crc16 : int64 list -> int64
val crc32 : int64 list -> int64

(** The hash as an explicit fold over untagged [int] state, for callers
    (the compiled fast path) that stream operands without building the
    list: seed with [hash_init] and fold [hash_step], which is
    [(h lxor Int64.to_int v) * hash_prime] — exposed so unboxed words
    fold without a call per operand. Then finish with [hash_mix]:
    [crc32 data = Int64.of_int (hash_mix h land 0x7FFFFFFF)] and
    [crc16 data = Int64.of_int ((hash_mix h lsr 16) land 0xFFFF)], for
    [h = List.fold_left hash_step hash_init data]. *)
val hash_init : int
val hash_step : int -> int64 -> int
val hash_prime : int
val hash_mix : int -> int

(** Does [value] satisfy the pattern? *)
val match_pattern : int64 -> Ast.pattern -> bool

(** Summed LPM prefix lengths: longest prefix wins within equal
    priorities. *)
val rule_specificity : Ast.rule -> int

(** Highest-priority (then longest-prefix) matching rule, if any. *)
val select_rule :
  env -> Ast.table -> params:(string * int64) list -> Netsim.Packet.t ->
  Ast.rule option

(** Does the program's parser accept this packet's header sequence? *)
val parse_accepts : Ast.program -> Netsim.Packet.t -> bool

type result = {
  verdict : verdict;
  parse_ok : bool;
  runtime_error : string option; (* faulting packets are dropped *)
}

(** Run the full program: parser gate, then the pipeline in order. *)
val run : env -> Ast.program -> Netsim.Packet.t -> result

(** Run a single block outside a pipeline — used for host-side offloads
    such as interpreted congestion-control programs. *)
val run_block : env -> Ast.block -> Netsim.Packet.t -> result
