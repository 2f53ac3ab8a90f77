(** Element-level control-plane API (the P4Runtime analogue, §3.4):
    counters, meters, and table rules of one device. Every call is
    accounted with a modeled control-plane latency so experiments can
    compare control-plane against data-plane execution. FlexNet's
    app-level abstractions translate into sequences of these calls. *)

type t

val connect : ?rtt:float -> Targets.Device.t -> t

val calls : t -> int

(** Accumulated modeled control-plane time. *)
val modeled_time : t -> float

(** Insert a rule, validated against the table declaration. *)
val insert_rule : t -> table:string -> Flexbpf.Ast.rule -> (unit, string) result

(** Remove rules matching a predicate; returns how many. *)
val remove_rules : t -> table:string -> (Flexbpf.Ast.rule -> bool) -> int

val rules : t -> table:string -> Flexbpf.Ast.rule list

(** Read one map cell (a "counter read"). *)
val read_counter : t -> map:string -> key:Flexbpf.State.key -> int64 option

val write_counter : t -> map:string -> key:Flexbpf.State.key -> int64 -> bool

