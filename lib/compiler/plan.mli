(** Reconfiguration plans: the interface between the compiler and the
    runtime. A plan is an ordered list of device operations; the
    runtime executes it hitlessly (or via drain, for the compile-time
    baseline). Per-device operations serialize; different devices work
    in parallel, so a plan's wall-clock is the max per-device serial
    time. Plans carry device {e ids}, not handles: the compiler emits
    them from pure searches over resource snapshots, and only
    [Runtime.Reconfig] resolves ids to live devices. *)

type op =
  | Install of {
      device : string;
      element : Flexbpf.Ast.element;
      ctx : Flexbpf.Ast.program;
      order : int;
    }
  | Remove of { device : string; element_name : string }
  | Move of {
      from_device : string;
      to_device : string;
      element : Flexbpf.Ast.element;
      ctx : Flexbpf.Ast.program;
      order : int;
    }
  | Add_parser of { device : string; rule : Flexbpf.Ast.parser_rule }
  | Remove_parser of { device : string; rule_name : string }
  | Migrate_state of { from_device : string; to_device : string; map_name : string }
  | Defragment of { device : string; moves : int }
      (* re-pack staged elements; [moves] live relocations *)

type t = {
  plan_name : string;
  ops : op list;
  residency : Targets.Resource.residency list;
      (* tables this plan installs oversubscribed: planned device-tier
         size and predicted miss rate *)
}

val v : ?residency:Targets.Resource.residency list -> string -> op list -> t

(** The device an op executes on (destination for moves/migrations). *)
val op_device : op -> string

val op_name : op -> string

(** Modelled duration of one op given its device's timing profile. *)
val op_time : Targets.Arch.reconfig_times -> op -> float

(** Resolve a device id to its reconfiguration timing profile from a
    device list (unknown ids get the dRMT profile) — the single
    op-serialization cost model shared by compiler, runtime, and
    benches. *)
val times_of_devices :
  Targets.Device.t list -> string -> Targets.Arch.reconfig_times

(** Serial op time per device id in the plan. *)
val per_device_times :
  times_of:(string -> Targets.Arch.reconfig_times) -> t ->
  (string * float) list

(** Wall-clock duration: per-device serialization, cross-device
    parallelism. [times_of] resolves a device id to its profile. *)
val duration : times_of:(string -> Targets.Arch.reconfig_times) -> t -> float

(** Total serial work — the "intrusiveness" metric of the incremental
    compilation experiments. *)
val total_work : times_of:(string -> Targets.Arch.reconfig_times) -> t -> float

(** Cost annotation attached by the pure planner: predicted
    intrusiveness, wall-clock, and per-device resource deltas
    (occupied after − before over the predicted snapshots). *)
type cost = {
  c_total_work : float;
  c_duration : float;
  c_deltas : (string * Targets.Resource.t) list;
}

val cost_of :
  times_of:(string -> Targets.Arch.reconfig_times) ->
  deltas:(string * Targets.Resource.t) list -> t -> cost

(** Cross-check of the static WCET certificate
    ([Flexbpf.Dataflow.Cost]) against the planner's heuristic
    ([Flexbpf.Analysis.max_cycles]); [ck_divergent] when the heuristic
    charges at least twice the certified worst case. *)
type cost_check = {
  ck_program : string;
  ck_certified : int; (* dead branches pruned *)
  ck_heuristic : int; (* = Analysis.max_cycles *)
  ck_ratio : float; (* heuristic / certified; 1.0 when certified = 0 *)
  ck_divergent : bool; (* ck_ratio >= 2.0 *)
}

val cost_check : Flexbpf.Ast.program -> cost_check
val pp_cost_check : Format.formatter -> cost_check -> unit

val size : t -> int
val pp : Format.formatter -> t -> unit
