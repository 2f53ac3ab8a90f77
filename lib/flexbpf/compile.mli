(** Closure-compiled fast path for FlexBPF.

    Compiles an installed program once into OCaml closures so the
    per-packet work is only the work the modelled hardware would do:
    expressions and statements become thunks (AST dispatch paid at
    compile time) that pass values through a per-element register file
    of unboxed words, map and table keys are word slices of that file
    probed in place ([State]'s flat keys), action parameters are array
    slots instead of assoc
    lookups, per-table hit/miss counter keys are pre-interned, parser
    acceptance is memoised per header-stack shape, and rule matching is
    an index — a hash table keyed on the evaluated key tuple when every
    installed rule is exact-match, otherwise a candidate array
    pre-sorted by (priority, specificity) scanned to first match.

    Rule indexes track [Interp.env.rules_gen]: they are rebuilt when
    [Interp.install_rule] / [remove_rules] change a rule set (one
    integer compare per table execution otherwise), so install/remove —
    including across [Runtime.Reconfig] program swaps — keeps compiled
    matching consistent with the environment. Map handles are cached per
    access site and revalidated against [Interp.env.maps_gen], so state
    snapshot restores ([Targets.Device.load_map_snapshot]) need no
    recompilation; counter cells, header-field and metadata cells, and
    the parser verdict are likewise cached and revalidated by cheap
    identity checks. Qualifying loops run with their induction variable
    staged in a register and loop-invariant field reads hoisted to
    registers filled at loop entry; the [hash(...) mod width] sketch
    idiom fuses into a single closure. A value is boxed only where it
    leaves into an [int64 ref]: a field or metadata write (a field
    write of a value below 1024 shares a prebuilt box), and the loop
    variable's publication.

    [Interp] remains the executable specification of FlexBPF; compiled
    execution is observationally equivalent (verdict, map state,
    counters, runtime errors), which [test/test_compile.ml] checks with
    a qcheck differential harness. *)

type t

(** Stage [prog] against [env]. Compilation is total: programs the
    interpreter can run (including ones that fault at run time) compile;
    faults surface at execution, matching the interpreter.

    With [prev] compiled against the same [env] (a recompile after a
    reconfiguration), every element physically unchanged since [prev]
    reuses its compiled code, so the cost follows what changed. Reused
    tables start with an unbuilt rule index and an empty device tier,
    as freshly compiled ones do, so execution and tier telemetry are
    those of a fresh compile. *)
val compile : ?prev:t -> Interp.env -> Ast.program -> t

val program : t -> Ast.program
val env : t -> Interp.env

(** Run the compiled program on one packet: parser gate, then the
    pipeline in order. Semantics identical to [Interp.run env prog].

    A run allocates nothing in steady state, so the result and its
    verdict belong to [t]: every run resets and refills the same
    verdict, and returns one of two prebuilt results (only a run that
    faults builds its own, to carry the message). A result is valid
    until [t]'s next run; a caller that keeps one longer must copy it.
    Two compiled programs, the old and new one across a recompile
    among them, never share a verdict. *)
val run : t -> Netsim.Packet.t -> Interp.result

(** {2 Tiered match tables}

    A table whose [Interp.env.tier_caps] entry bounds its device tier
    executes through a two-tier index: a bounded key-tuple → memoized
    winner cache ([State.Tier]) in front of the authoritative
    per-generation index. A device-tier fault is served by the
    authoritative lookup (same result, slower) and paged in: promoted
    in place when [Interp.env.page_in] is [None], else through that
    hook (on a copy of the key). Because bindings memoize full
    first-match {e results} (including "no match" = default action),
    residency never affects semantics — only latency — and any
    generation bump flushes the tier. *)

(** Cumulative device-tier telemetry of one tiered table. *)
type tier_stat = {
  ts_table : string;
  ts_capacity : int; (* device-tier bound, rules *)
  ts_resident : int; (* currently cached bindings *)
  ts_hits : int; (* lookups served by the device tier *)
  ts_misses : int; (* faults escalated to the host tier *)
  ts_promotions : int;
  ts_evictions : int; (* LRU victims demoted under pressure *)
  ts_demotions : int; (* evictions + invalidation/flush drops *)
}

(** Telemetry of every tiered table in pipeline order (empty when no
    table is tiered). Refreshes stale indexes first. *)
val tier_stats : t -> tier_stat list

(** Resident hot-key set of [table]'s device tier — the warm-start
    payload carried by migration. Empty when the table is not tiered. *)
val tier_resident_keys : t -> string -> State.key list

(** Pre-fault [keys] into [table]'s device tier (migration warm
    start) without touching hit/miss telemetry. No-op on untired
    tables; keys of the wrong arity are skipped. *)
val warm_table : t -> string -> State.key list -> unit
