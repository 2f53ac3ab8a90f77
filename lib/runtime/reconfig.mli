(** The one reconfiguration engine: every change to a live datapath —
    deploy, patch, recompile, GC/defragment, state migration — arrives
    here as a [Compiler.Plan.t] and is executed against the devices
    under two-version windows. This is the only module that opens or
    closes a device window. [run_plan] and [execute] share one staging
    step: freeze the devices the plan touches, interpret the ops, roll
    back on an op failure. Ops on a device already inside another
    plan's open window ride that window: they become visible at its
    acknowledgement, and this plan never closes or undoes it.

    - [Hitless] (runtime programmable): touched devices keep serving
      traffic with their old program; the window closes at the
      acknowledgement, when the slowest device's modelled op batch
      completes, and every touched device flips to the new program at
      that instant. Zero loss, "program changes complete within a
      second".
    - [Drain] (compile-time baseline): each touched device is isolated,
      reflashed with the full program, then redeployed; loss is
      proportional to drain + reflash time.

    Failure handling (Hitless): a device that crashed inside the window
    fails the acknowledgement and restarts on its old program;
    survivors roll back and the plan is re-driven with exponential
    backoff, or aborted atomically once the retry budget is spent. An
    op a device rejects aborts at once, without a retry. Each device
    always runs old-XOR-new. *)

type mode = Hitless | Drain

type outcome = {
  started_at : float;
  finished_at : float;
  attempts : int; (* 1 on a fault-free run *)
  rolled_back : bool; (* true: plan aborted, all devices on old program *)
}

(** Execute [plan] over [devices] (every device its ops name) starting
    now; [wireds] are their packet-path attachments, which [Drain]
    takes offline. [on_done] fires when the window closed or the plan
    aborted. Hitless runs survive crashes inside the window: up to
    [max_retries] re-drives (default 2) with exponential backoff from
    [retry_backoff] seconds (default 0.05), then an atomic abort.

    Observability: a "reconfig.execute" span (with "reconfig.attempt"
    children per Hitless attempt) is recorded on the simulation's
    tracer, and "reconfig.retries" / "reconfig.gaveups" are counted in
    the simulation's registry. *)
val execute :
  ?on_done:(outcome -> unit) -> ?max_retries:int -> ?retry_backoff:float ->
  sim:Netsim.Sim.t -> mode:mode -> wireds:Wiring.wired list ->
  devices:Targets.Device.t list -> Compiler.Plan.t -> unit

(** Untimed plan execution: stage the plan and close its window at
    once. An op failure rolls the self-frozen devices back and reports
    the error. With [predicted] (the planner's post-execution
    snapshots), actual device state is reconciled against the
    prediction after the thaw ([Targets.Resource.diff]); devices still
    inside another plan's window are skipped. With [obs], a
    "reconfig.run_plan" span (plan name, op count, outcome) is
    recorded, parented under [parent]. *)
val run_plan :
  ?obs:Obs.Scope.t -> ?parent:Obs.Trace.span ->
  ?predicted:(string * Targets.Resource.snapshot) list ->
  devices:Targets.Device.t list -> Compiler.Plan.t -> (unit, string) result

(** {2 Plan-then-execute entry points}

    Each plans with the pure compiler, executes the winning plan
    through {!run_plan}, and reconciles predicted snapshots against the
    actual device state. *)

(** Plan and execute a fresh placement of the program on the path.
    @raise Failure if a freshly planned op is rejected by a device —
    planner and device admission disagreeing is an invariant
    violation. *)
val place :
  ?obs:Obs.Scope.t -> path:Targets.Device.t list -> Flexbpf.Ast.program ->
  (Compiler.Placement.t, Compiler.Placement.failure) result

(** Remove a placed program from its devices. *)
val unplace : ?obs:Obs.Scope.t -> Compiler.Placement.t -> unit

(** Deploy a program fresh onto a path. With [obs], the whole operation
    runs under a "reconfig.deploy" span. This is the only constructor
    of a deployment, and it type-checks the whole program once
    ({!Flexbpf.Patch.check_base}) before placing it: a deployment's
    program is always well typed, which is what lets every later patch
    be checked by its delta alone.
    @raise Invalid_argument on an ill-typed program. *)
val deploy :
  ?obs:Obs.Scope.t -> path:Targets.Device.t list -> Flexbpf.Ast.program ->
  (Compiler.Incremental.deployment, Compiler.Placement.failure) result

(** Record an executed change on the deployment: its new program and
    element placement. *)
val commit_deployment :
  Compiler.Incremental.deployment -> Compiler.Incremental.planned_change ->
  unit

(** Plan a patch (candidate search over snapshots, see
    {!Compiler.Incremental.plan_patch}), execute the winning plan,
    reconcile, and commit the new program/placement. The deployment is
    untouched on error. With [obs], runs under a "reconfig.patch"
    span. *)
val apply_patch :
  ?obs:Obs.Scope.t -> ?candidates:int -> ?prefer_adjacent:bool ->
  Compiler.Incremental.deployment -> Flexbpf.Patch.t ->
  (Compiler.Incremental.report * Flexbpf.Patch.diff,
   Compiler.Incremental.error)
  result

(** Plan and execute the compile-time baseline: full teardown and
    redeploy. With [obs], runs under a "reconfig.full_recompile"
    span. *)
val full_recompile :
  ?obs:Obs.Scope.t -> Compiler.Incremental.deployment ->
  Flexbpf.Ast.program ->
  (Compiler.Incremental.report, Compiler.Incremental.error) result

(** {2 Fungible compilation, executed} *)

type fungible_outcome = {
  placement : Compiler.Placement.t option;
  iterations : int; (* placement attempts *)
  gc_removed : string list;
  defrag_moves : int;
  failure : Compiler.Placement.failure option;
}

(** One-shot bin-packing baseline, planned then executed. *)
val place_once :
  ?obs:Obs.Scope.t -> path:Targets.Device.t list -> Flexbpf.Ast.program ->
  fungible_outcome

(** The fungible compilation loop (GC + defragmentation over
    snapshots), executed as a single plan; on planning failure the
    devices are untouched. *)
val place_with_gc :
  ?obs:Obs.Scope.t -> ?max_iterations:int -> path:Targets.Device.t list ->
  removable:(Targets.Device.t -> string list) -> Flexbpf.Ast.program ->
  fungible_outcome

(** {2 Energy consolidation, executed} *)

(** Plan a consolidation ({!Compiler.Energy.consolidate}), execute its
    moves through {!run_plan} (each table's rules and each element's
    map state travel with it), power off the devices left empty, and
    update the placement.
    @raise Failure if a planned move is rejected by a device. *)
val consolidate : Compiler.Placement.t -> Compiler.Energy.consolidation
