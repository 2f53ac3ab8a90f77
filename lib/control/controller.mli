(** The central controller: the pilot of a runtime programmable network
    (§3.4). Maintains the global view (topology, devices, app
    locations), exposes app-level management operations keyed by URI,
    dispatches data-plane digests (punts) to subscribers, and
    optionally journals every management operation through a Raft
    cluster. *)

type app_kind = Infrastructure | Tenant_extension | Utility

type app = {
  uri : Uri.t;
  kind : app_kind;
  mutable program : Flexbpf.Ast.program;
  mutable replicas : Targets.Device.t list; (* devices hosting it *)
  mutable handle : Runtime.Migration.handle option;
  registered_at : float;
}

type t

val devices : t -> Targets.Device.t list

val create :
  sim:Netsim.Sim.t -> topo:Netsim.Topology.t ->
  wireds:Runtime.Wiring.wired list -> t

(** Attach a Raft cluster: management operations are proposed to the
    leader before execution. *)
val enable_ha : t -> Raft.t -> unit

(** Cached element-level API session for a device. *)
val api : t -> Targets.Device.t -> Device_api.t

(** {2 App registry} *)

val register_app :
  t -> uri:Uri.t -> kind:app_kind -> program:Flexbpf.Ast.program ->
  replicas:Targets.Device.t list -> app

val lookup : t -> Uri.t -> app option

(** Device ids hosting the app. *)
val app_locations : t -> Uri.t -> string list

(** {2 App-level management operations} *)

type op_error = Unknown_app | Unknown_device | Operation_failed of string

val pp_op_error : Format.formatter -> op_error -> unit

val find_device : t -> string -> Targets.Device.t option

(** Inject an app's elements onto a device (defense summoning, replica
    creation). *)
val inject_on : t -> Uri.t -> device:Targets.Device.t -> (unit, op_error) result

(** Retire an app replica from a device. *)
val retire_from : t -> Uri.t -> device:Targets.Device.t -> (unit, op_error) result

(** Migrate a stateful app (needs a migration handle) to another device
    via the data-plane swing protocol. *)
val migrate :
  t -> Uri.t -> to_device:Targets.Device.t -> ?on_done:(unit -> unit) ->
  unit -> (unit, op_error) result

(** Grow a named map of an app — the "expand a certain resource type"
    URI operation. *)
val expand_map : t -> Uri.t -> map_name:string -> factor:int -> (unit, op_error) result

(** {2 Failure handling} *)

(** A device crashed: drop its cached API session and journal. *)
val handle_device_crash : t -> string -> unit

(** A crashed device restarted: reconnect lazily and re-resolve — any
    app replica elements lost to the crash rollback are reinstalled. *)
val handle_device_restart : t -> string -> unit

(** Elements re-injected by restart re-resolution. *)
val reresolutions : t -> int

(** Subscribe to a fault injector's device events so crashes/restarts
    are handled automatically. *)
val watch_faults : t -> Netsim.Faults.t -> unit

(** {2 Digests} *)

(** Subscribe to a digest name; the callback runs on every punt. *)
val subscribe : t -> digest:string -> (string -> Netsim.Packet.t -> unit) -> unit

val digest_count : t -> string -> int

(** {2 Global view} *)

type device_summary = {
  ds_id : string;
  ds_kind : Targets.Arch.kind;
  ds_elements : int;
  ds_utilization : float;
  ds_processed : int;
}

val view : t -> device_summary list
val pp_view : Format.formatter -> t -> unit
