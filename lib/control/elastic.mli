(** Elastic scaling policies (§1.1): defenses and apps "dynamically
    scale in and out based on attack traffic volume." A threshold
    policy samples a load signal periodically and drives the replica
    count toward a desired level, within bounds and a cooldown; the
    [scale_to] actuator injects or removes replicas. *)

type t

(** Threshold policy: desired = ceil(sample () / capacity_per_replica). *)
val create :
  ?min_replicas:int -> ?max_replicas:int -> ?cooldown:float ->
  ?period:float -> sim:Netsim.Sim.t -> name:string ->
  sample:(unit -> float) -> capacity_per_replica:float ->
  scale_to:(int -> unit) -> unit -> t

val stop : t -> unit
val replicas : t -> int

(** (time, new replica count) decisions, oldest first. *)
val events : t -> (float * int) list

val name : t -> string

(** A [scale_to] actuator driving a registered controller app over a
    fixed device list through the plan path: scaling to [n] injects the
    app on the first [n] devices missing it and retires it from the
    rest. [on_retire] runs just before a replica is removed (harvest
    counters before the uninstall releases its maps), [on_inject] just
    after one comes up. *)
val app_actuator :
  ?on_inject:(Targets.Device.t -> unit) ->
  ?on_retire:(Targets.Device.t -> unit) ->
  controller:Controller.t -> uri:Uri.t -> devices:Targets.Device.t list ->
  unit -> int -> unit
