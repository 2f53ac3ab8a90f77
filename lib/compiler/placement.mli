(** Pure placement planning: a search over resource snapshots that
    emits a cost-annotated {!Plan.t}.

    The datapath is an ordered device path (host stack, NIC, switches,
    ... — the "physical slice" a fungible datapath runs on). Placement
    respects pipeline order: unit i+1 may not land earlier in the path
    than unit i. Within that constraint it is first-fit with vertical
    affinity: tables try switching ASICs first, offloads only consider
    general-purpose targets.

    No function here touches a device; execution — and rollback — is
    [Runtime.Reconfig]'s job. *)

open Flexbpf

(** A realized placement, as tracked by the runtime after executing a
    deploy plan: element name -> hosting device. *)
type t = {
  path : Targets.Device.t list;
  mutable where : (string * Targets.Device.t) list; (* element -> device *)
  prog : Ast.program;
}

type failure = {
  failed_unit : Lowering.unit_;
  attempts : (string * Targets.Resource.reject) list; (* device id -> why *)
}

val pp_failure : Format.formatter -> failure -> unit

(** Index of a device on the path; [None] if absent. *)
val device_position : Targets.Device.t list -> Targets.Device.t -> int option

val where : t -> string -> Targets.Device.t option

(** Sorted ids of devices hosting at least one element. *)
val devices_used : t -> string list

(** Candidate devices for a unit in preference order, respecting
    pipeline order (path position >= [min_pos]) and vertical affinity. *)
val candidates :
  path:Targets.Device.t list -> min_pos:int -> Lowering.unit_ ->
  Targets.Device.t list

(** A successful pure placement. *)
type planned = {
  pln_where : (string * string) list; (* element name -> device id *)
  pln_plan : Plan.t;
  pln_cost : Plan.cost;
  pln_snaps : (string * Targets.Resource.snapshot) list;
      (* predicted (finalized) snapshot of every path device *)
}

(** Current snapshots of every device on the path, keyed by id. *)
val default_snaps :
  Targets.Device.t list -> (string * Targets.Resource.snapshot) list

(** Per-touched-device resource delta (used after − used before). *)
val snapshot_deltas :
  before:(string * Targets.Resource.snapshot) list ->
  after:(string * Targets.Resource.snapshot) list ->
  Plan.t -> (string * Targets.Resource.t) list

(** Plan the placement of every unit of the program over the given
    snapshots; [path] supplies device order and metadata only. Pure. *)
val plan_on :
  ?plan_name:string ->
  snaps:(string * Targets.Resource.snapshot) list ->
  path:Targets.Device.t list ->
  Ast.program -> (planned, failure) result

(** [plan_on] against the devices' current state. *)
val plan :
  path:Targets.Device.t list -> Ast.program -> (planned, failure) result

(** Mean device utilization over the path (experiment reporting). *)
val mean_utilization : Targets.Device.t list -> float
