(** Data-plane RPC services (§3.4).

    The infrastructure program exposes common utilities (state
    replication, counter reads) as dRPC services that tenant datapaths
    invoke without a controller round trip; discovery runs through an
    in-network registry. Latency model: a dRPC rides the data plane
    (microseconds); the control-plane alternative costs a controller
    RTT (milliseconds).

    Fault tolerance: a bound [Netsim.Faults] injector may drop
    invocations; the async entry points carry a per-call timeout plus
    bounded exponential-backoff retries, and report [None] once the
    budget is exhausted. *)

type t

val create : ?controlplane_rtt:float -> Netsim.Sim.t -> t

(** Bind (or clear) a fault injector; its [Drpc_window] plan entries
    then apply to every invocation through this registry. *)
val set_faults : t -> Netsim.Faults.t option -> unit

(** Retry machinery counters: "drpc.drops" (injected losses),
    "drpc.retries", "drpc.gaveups". This is the simulation's unified
    registry ([Obs.Scope.metrics (Sim.obs sim)]), which also carries
    "drpc.dp_invocations" / "drpc.cp_invocations". *)
val stats : t -> Obs.Metrics.t

val register :
  t -> ?owner:string -> ?dataplane_latency:float -> string ->
  (int64 list -> int64) -> unit

val unregister : t -> string -> unit

(** In-network registry lookup by glob pattern, sorted. *)
val discover : t -> string -> string list

(** Synchronous invocation from inside packet processing — what a
    [Call] statement compiles to. Unknown services return 0. *)
val invoke_inline : t -> string -> int64 list -> int64

(** Asynchronous data-plane invocation; [k] fires after the service's
    data-plane latency ([None] for unknown services, or after the retry
    budget is spent on a faulty fabric). Lost attempts are detected
    after [timeout] (default 8x the service latency) and retried with
    exponential backoff up to [max_retries] (default 3). *)
val invoke_dataplane :
  t -> ?timeout:float -> ?max_retries:int -> string -> int64 list ->
  k:(int64 option -> unit) -> unit

(** The same operation via the controller: one control-plane RTT per
    invocation (the E11 baseline). [timeout] defaults to 2x the RTT. *)
val invoke_controlplane :
  t -> ?timeout:float -> ?max_retries:int -> string -> int64 list ->
  k:(int64 option -> unit) -> unit

(** Bind this registry as the dRPC backend of a device's interpreter
    environment. *)
val bind_device : t -> Targets.Device.t -> unit

(** Name of the demand-paging service registered by [bind_paging]. *)
val page_service : string

(** Route [device]'s tiered-table demand paging
    ([Flexbpf.Interp.env.page_in]) through this registry: each
    device-tier fault becomes a "tier.page" data-plane invocation under
    the standard timeout/backoff/retry machinery, traced as a
    [table.fault] span and counted as "table.faults" /
    "table.fault_drops". A dropped page delays promotion — host-tier
    lookups keep serving, slower but never wrong. *)
val bind_paging :
  ?latency:float -> ?timeout:float -> ?max_retries:int -> t ->
  Targets.Device.t -> unit

val dp_invocations : t -> int
val cp_invocations : t -> int

(** Register the standard infra utilities backed by [fleet]:
    "heartbeat", "read_counter" (map sum by device index), and
    "replicate" (snapshot copy between device indices, on [map_name]). *)
val register_standard :
  t -> fleet:Targets.Device.t list -> map_name:string -> unit
