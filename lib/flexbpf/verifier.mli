(** The FlexBPF verifier: dataflow safety analysis for runtime-injected
    programs (§2, §3.1).

    [Typecheck] proves well-formedness and [Analysis] bounds execution;
    this module adds the eBPF-verifier-style semantic passes between
    the two. Each pass walks an [Ast.program] and reports
    [Diagnostics.t] findings with stable [FBVnnn] codes:

    {b uninit-read} — may-analysis of header presence and metadata
    definedness through [If] joins.
    - [FBV001] (Error): header field read/written when no parser rule
      or prior statement can have produced the header.
    - [FBV002] (Warning): metadata slot read before any assignment
      (reads default to 0).

    {b dead-code} — reachability of statements, elements, actions, maps.
    - [FBV010] (Warning): statement after an unconditional drop.
    - [FBV011] (Warning): element after an element that drops every
      packet.
    - [FBV012] (Info): non-default action unreachable until a rule
      references it.
    - [FBV013] (Warning): map never read or written by the pipeline.
    - [FBV014] (Info): map written but never read (control-plane only).
    - [FBV015] (Info): map read but never written by the pipeline.

    {b value-range} — interval abstract interpretation over [int64].
    - [FBV020] (Warning): branch condition is constant.
    - [FBV021] (Warning): shift amount always outside [0..63].
    - [FBV022] (Warning): division/modulo by an always-zero expression.
    - [FBV023] (Warning): key always outside [0, size) on a
      registers-encoded map (certain hash aliasing).
    - [FBV024] (Warning): value can never fit the target field width.
    - [FBV025] (Warning): nested loops whose aggregate iteration count
      dwarfs [Typecheck.max_loop_bound].

    {b migration-safety} — lossy concrete encodings under per-packet
    mutation (§3.4, [Runtime.Migration.freeze_copy]).
    - [FBV030] (Warning): mutated map pinned to registers (aliasing).
    - [FBV031] (Warning): mutated map pinned to flow-state (overflow).

    {b tenant-isolation} — [Compose] access control as lint.
    - [FBV040] (Warning): foreign-map touch / name collision /
      unauthorized drop, via [Compose.check_access].
    - [FBV041] (Info): tenant element not VLAN-guarded (admission will
      wrap it with [Compose.guard_element]).

    {b shard-safety} — map access classification for the domain-sharded
    datapath ([Dataflow.Shard_safety]).
    - [FBV050] (Info): map is shard-commutative (increment-only writes
      merge by sum).
    - [FBV051] (Warning): map needs an exclusive owner shard
      (put/delete last-writer-wins state).
    - [FBV052] (Error for tenant owners, Warning for infra):
      read-modify-write — the written value derives from a read of the
      same map and races across shards.
    - [FBV053] (Info): shard-commutative map also read on the datapath
      (shards observe partial counts).
    - [FBV054] (Warning): map mixes increments with put/delete writes.

    {b static-cost} — WCET certificate checks ([Dataflow.Cost]).
    - [FBV060] (Info): one element dominates the certified per-packet
      cost.
    - [FBV061] (Warning): the planner heuristic charges at least twice
      the certified worst case (statically dead branches).
    - [FBV062] (Warning): certified cost exceeds half the default
      admission budget.

    Passes assume a well-formed program — run [Typecheck.check_program]
    first, or use [check] which folds typechecking in. All entry points
    are deterministic: same program, same diagnostic list. *)

(** Individual passes, in the order [verify] runs them. Results are in
    traversal order, not normalized. *)

val uninit_read : Ast.program -> Diagnostics.t list
val dead_code : Ast.program -> Diagnostics.t list

(** The value-range pass, hosted on [Dataflow]'s CFG and forward
    solver. *)
val value_range : Ast.program -> Diagnostics.t list

val migration_safety : Ast.program -> Diagnostics.t list
val tenant_isolation : Ast.program -> Diagnostics.t list
val shard_safety : Ast.program -> Diagnostics.t list
val static_cost : Ast.program -> Diagnostics.t list

(** The pass table: name (as it appears in [Diagnostics.t.pass]) and
    entry point. *)
val passes : (string * (Ast.program -> Diagnostics.t list)) list

val pass_names : string list

(** Run every pass and return the normalized (sorted, deduplicated)
    findings. Assumes a well-typed program. *)
val verify : Ast.program -> Diagnostics.t list

(** A typechecking error as an [FBV000] Error diagnostic. *)
val of_typecheck_error : Typecheck.error -> Diagnostics.t

(** [check prog] typechecks, then verifies: typecheck failures come
    back as [FBV000] Errors (and suppress the semantic passes, which
    assume well-formed input). *)
val check : Ast.program -> Diagnostics.t list

(** Every diagnostic code with a human explanation: (code, (title,
    detail)), in code order — the backing store for
    [flexnet lint --explain]. *)
val explanations : (string * (string * string)) list

(** Look up one code (case-insensitive). *)
val explain : string -> (string * string) option
