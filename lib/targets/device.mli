(** A runtime-programmable device instance.

    All architectures share FlexBPF's functional semantics (one
    interpreter); they differ in {e where} an element may be placed and
    what it costs — the paper's fungibility taxonomy. The device
    performs its own internal slotting (stage / tile / pool / PEM),
    mirroring how vendor backends hide physical layout behind the
    device API; the global compiler only picks which device hosts which
    element.

    Two-version consistency (§2): [freeze] keeps traffic on the current
    program while mutations are applied; [thaw] makes the new program
    visible atomically and runs deferred cleanups. *)

(** [Resource.reject_to_string]. *)
val reject_to_string : Resource.reject -> string

type t

(** The device's resource state. The device holds it as this immutable
    value and changes it only through [Resource]'s functions ([install]
    is [Resource.admit] on it), so the compiler plans against the very
    value the device admits against. While a window is open it carries
    the window's deferred map unrefs in [pending_unref]. *)
val snapshot : t -> Resource.snapshot

(** The compiler's state-encoding selection (§3.1): each architecture
    class has a natural physical encoding for logical maps. *)
val default_encoding_of_kind : Arch.kind -> Flexbpf.State.concrete

val create : ?id:string -> Arch.profile -> t

val id : t -> string
val kind : t -> Arch.kind

(** Attach (or clear) an observability scope. Once set, the device
    counts "device.packets" (labeled by device id and program
    generation), "device.reconfigs", and reports "device.elements" /
    "device.parser_rules" gauges into the scope's registry. Wired by
    [Runtime.Wiring.attach] to the simulation's scope. [labels] are
    appended to every device series — sharded simulations pass
    [("shard", i)] so per-shard breakdowns survive the merged export. *)
val set_obs : ?labels:(string * string) list -> t -> Obs.Scope.t option -> unit

(** Bumped on every reconfiguration; stamped into packets as [epoch]. *)
val version : t -> int

(** The interpreter environment: rules and map state live here. *)
val env : t -> Flexbpf.Interp.env

val processed : t -> int
val installed_names : t -> string list

(** Install one element of [ctx] at pipeline position [order]:
    [Resource.admit] on the device's snapshot (architecture-specific
    slotting, block-cycle bound, parser capacity), then the context's
    parser rules, headers and newly referenced maps are merged in. *)
val install :
  t -> ctx:Flexbpf.Ast.program -> order:int -> Flexbpf.Ast.element ->
  (Resource.slot, Resource.reject) result

(** Remove an element, refunding its resources. Map/rule cleanup is
    deferred while frozen so the old program stays runnable. *)
val uninstall : t -> string -> bool

(** Re-pack staged architectures first-fit in pipeline order so free
    stage space coalesces; returns how many elements moved. No-op on
    pooled architectures. *)
val defragment : t -> int

(** {2 State transfer} *)

val map_state : t -> string -> Flexbpf.State.t option

(** Load a logical snapshot into map [name], converting to this
    device's physical encoding — the state-representation conversion of
    program migration (§3.1). [false] if the map is not declared here. *)
val load_map_snapshot : t -> string -> Flexbpf.State.snapshot -> bool

(** {2 Parser reconfiguration} *)

val add_parser_rule :
  t -> Flexbpf.Ast.parser_rule -> (unit, Resource.reject) result
val remove_parser_rule : t -> string -> bool

(** {2 Two-version consistency} *)

(** Begin a reconfiguration window: traffic keeps seeing the current
    program until [thaw]. Idempotent. The window logs the maps, tables
    and tier bounds it adds instead of listing the resident ones, so a
    freeze allocates the same whatever the device holds. *)
val freeze : t -> unit

(** End the window: the new program becomes visible atomically. *)
val thaw : t -> unit

val is_frozen : t -> bool

(** Abort the open window: restore the structural state captured at
    [freeze] (the snapshot among it) and resume on the old program. Maps/tables added by the
    aborted update are dropped and tier bounds it changed are restored,
    as logged by [install] during the window; pre-existing map contents
    (still being mutated by traffic under the old program) are kept.
    No-op when not frozen. *)
val rollback : t -> unit

(** {2 Crash / restart} *)

(** Fail-stop crash: powers the device off and bumps [crashes]. *)
val crash : t -> unit

(** Restart after a crash. A device that died mid-update comes back on
    its old program (the in-flight mutations roll back), preserving
    old-XOR-new under failure. *)
val restart : t -> unit

(** Total crash events — the runtime compares this across a
    reconfiguration window to detect a crash that was repaired (crash +
    restart) entirely within the window. *)
val crashes : t -> int

(** The program traffic currently observes (frozen old program during a
    window, the live one otherwise). *)
val active_program : t -> Flexbpf.Ast.program

(** The currently installed (live) program. *)
val program : t -> Flexbpf.Ast.program

(** {2 Execution} *)

(** Stage the live program's closure-compiled fast path now instead of
    on the first packet after a change. [Runtime.Reconfig] calls this
    inside the reconfiguration window so the compile cost is paid at
    reconfig time, off the packet path. Idempotent. *)
val precompile : t -> unit

(** Run the active program on a packet through the closure-compiled
    fast path ([Flexbpf.Compile]; [Flexbpf.Interp] is the reference
    semantics), stamping the packet's [epoch] with the observed program
    version. The result belongs to the compiled program that ran it
    (see [Flexbpf.Compile.run]): read it before the next [exec] of this
    device. *)
val exec : t -> now_us:int64 -> Netsim.Packet.t -> Flexbpf.Interp.result

(** Per-packet processing latency of the installed program. *)
val latency_ns : t -> float

(** {2 Tiered match tables}

    A table admitted oversubscribed ([Resource.admit] residency) runs
    with a bounded device tier in front of the authoritative host tier;
    [install] wires the bound into the interpreter environment
    ([Flexbpf.Interp.set_tier_capacity]) so the compiled fast path
    tiers its index. *)

(** Device-tier telemetry of every tiered table on this device. *)
val tier_stats : t -> Flexbpf.Compile.tier_stat list

(** Resident hot-key set of [table]'s device tier — the warm-start
    payload a migration carries. Empty when the table is not tiered. *)
val tier_resident_keys : t -> string -> Flexbpf.State.key list

(** Pre-fault [keys] into [table]'s device tier (migration warm start);
    no-op on untiered tables. *)
val warm_tier : t -> string -> Flexbpf.State.key list -> unit

(** {2 Utilization / energy} *)

(** Most-loaded-dimension occupancy in [0, 1]. *)
val utilization : t -> float

val set_power : t -> bool -> unit
val powered_on : t -> bool
val energy_joules : t -> seconds:float -> pps:float -> float

val reconfig_times : t -> Arch.reconfig_times

val pp : Format.formatter -> t -> unit
