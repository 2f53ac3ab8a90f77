(** Incremental recompilation (§3.3) — as pure planning.

    Runtime changes are compiled "in a least-intrusive manner": from a
    live deployment, a patch produces a reconfiguration plan touching
    only the changed elements and preferring {e maximally adjacent}
    placements — the device an element already lives on, or the devices
    hosting its pipeline neighbours.

    Nothing here mutates a device or the deployment: [plan_patch]
    searches resource snapshots, generates several candidate plans and
    returns the cheapest by predicted total work;
    [plan_full_recompile] is the compile-time baseline.
    [Runtime.Reconfig] executes the winning plan and commits the new
    program/placement on success. *)

(** A live deployment. Invariant: [dep_prog] is well typed.
    [Runtime.Reconfig.deploy], the only constructor, checks the whole
    program once; every later program comes out of [Flexbpf.Patch.apply]
    (delta-checked) or [plan_full_recompile] (checked whole), so
    [plan_patch] never re-checks what a patch did not change. *)
type deployment = {
  mutable dep_prog : Flexbpf.Ast.program;
  mutable dep_placement : Placement.t;
}

type report = {
  plan : Plan.t;
  moved_elements : int; (* installed, removed, or relocated *)
  touched_devices : string list;
  duration : float; (* parallel wall-clock model *)
  total_work : float; (* serial op time: intrusiveness *)
  cost : Plan.cost; (* full annotation incl. per-device resource deltas *)
}

type error =
  | Patch_error of string
  | Placement_error of Placement.failure
  | Exec_error of string (* a planned op failed on the live device *)

val pp_error : Format.formatter -> error -> unit

(** A plan plus the deployment state it predicts: program and
    element->device map after execution, and the per-device snapshots
    the executor reconciles against. *)
type planned_change = {
  ch_prog : Flexbpf.Ast.program;
  ch_where : (string * Targets.Device.t) list;
      (* element name -> device; shares the deployment's placement list
         where the change leaves it alone *)
  ch_snaps : (string * Targets.Resource.snapshot) list;
  ch_report : report;
  ch_candidates : int; (* candidate plans evaluated *)
}

(** Plan a patch against a live deployment without touching it.
    Generates up to [candidates] (default 3) alternative plans by
    rotating the preference list at each placement decision and returns
    the one with least predicted total work (ties: fewer ops, then
    lowest rotation). [prefer_adjacent:false] is the A1 ablation
    baseline — the same candidate generation with inverted preference
    order. Deterministic. *)
val plan_patch :
  ?candidates:int -> ?prefer_adjacent:bool -> deployment -> Flexbpf.Patch.t ->
  (planned_change * Flexbpf.Patch.diff, error) result

(** Plan the compile-time baseline: remove everything, re-place the new
    program from scratch; the cost model is drain + full reflash on
    every touched device. Pure. An ill-typed [new_prog] is a
    [Patch_error]. *)
val plan_full_recompile :
  deployment -> Flexbpf.Ast.program -> (planned_change, error) result
