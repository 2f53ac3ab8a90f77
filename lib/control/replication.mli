(** State replication and failover (§3.4): "the FlexNet controller
    replicates important network state in a logical datapath across
    multiple physical devices." A group keeps one primary map
    synchronized to backups every [period] seconds; on primary failure
    a backup is promoted, the loss window being whatever changed since
    the last sync. *)

type t

val create :
  sim:Netsim.Sim.t -> map_name:string -> primary:Targets.Device.t ->
  backups:Targets.Device.t list -> period:float -> t

(** Stop periodic syncing. *)
val stop : t -> unit

(** Promote the next backup after a primary failure. *)
val failover : t -> Targets.Device.t option

(** Value-sum gap between the primary and a backup — the loss-window
    metric. *)
val staleness : t -> Targets.Device.t -> int

(** {2 Failure handling} *)

(** Is (or was) this device id a group member? *)
val member : t -> string -> bool

(** A member crashed: primary → promote the freshest backup; backup →
    drop it from the sync set until restart. Non-members are ignored. *)
val handle_crash : t -> string -> unit

(** A restarted ever-member rejoins as a backup and is resynced
    immediately. Non-members are ignored. *)
val rejoin : t -> Targets.Device.t -> unit

(** Subscribe to a fault injector: members fail over on crash and
    rejoin + resync on restart; [resolve] maps a device id back to its
    handle (e.g. [Controller.find_device]). *)
val watch_faults :
  t -> Netsim.Faults.t -> resolve:(string -> Targets.Device.t option) -> unit

val syncs : t -> int
val failovers : t -> int

(** Successful restart rejoins. *)
val rejoins : t -> int

val primary : t -> Targets.Device.t
val backups : t -> Targets.Device.t list
