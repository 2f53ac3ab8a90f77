(** Tenant lifecycle management (§3's deployment scenario).

    Tenants provide extension programs that are dynamically injected
    into and removed from the network, admitted after access-control
    validation and isolated via VLANs. There is one composition path:
    {!admit} certifies bounded execution, then live-patches the
    deployment with {!Flexbpf.Compose.arrival} (namespace, access
    control, guard with the next free VLAN); {!depart} applies
    {!Flexbpf.Compose.departure}, which removes everything the tenant
    owns. Policy tenants lower their term with
    [Policy.Compile.lower_block ~overlay:true] and are admitted like any
    other program. *)

type tenant = {
  tenant_name : string;
  vlan : int;
  arrived_at : float;
  element_names : string list; (* namespaced, as installed *)
  diagnostics : Flexbpf.Diagnostics.t list;
      (* sub-Error verifier findings recorded at admission *)
  parallel : Flexbpf.Dataflow.Shard_safety.t;
      (* shard-safety certificate: how the tenant's maps shard *)
  static_cost : Flexbpf.Dataflow.Cost.t; (* certified per-packet WCET *)
  shard_affinity : int option;
      (* [Some s]: every instance of this tenant's maps must live in
         shard [s]; [None]: replicate freely *)
}

type t = {
  sim : Netsim.Sim.t;
  deployment : Compiler.Incremental.deployment;
  shards : int; (* shard count placement draws from *)
  mutable tenants : tenant list;
  mutable next_vlan : int;
  mutable admitted : int;
  mutable rejected : int;
  mutable departed : int;
  mutable clock : unit -> float; (* see [set_clock] *)
}

(** [shards] (default 1) is the shard pool admission places into:
    tenants whose [Parallel_safety] verdict is [Exclusive] are pinned
    to one shard (stable hash of the tenant name, so placement is
    independent of arrival order), while [Read_only] and [Commutative]
    tenants get no affinity and replicate across every shard with
    merge-by-sum semantics. Admission records the decision in the
    [tenants.placement] counter (labelled by verdict class) and on the
    [tenant.admit] span. *)
val create :
  ?shards:int -> sim:Netsim.Sim.t ->
  Compiler.Incremental.deployment -> t

val find : t -> string -> tenant option

(** Swap the wall clock behind the [tenants.admit_latency_ms]
    histogram. The default is [Sys.time] (no unix dependency); benches
    inject [Unix.gettimeofday] for sub-millisecond resolution. *)
val set_clock : t -> (unit -> float) -> unit

(** {2 Admission outcome instrumentation}

    Every admission attempt lands in two registry series: the labelled
    counter [tenants.outcome{outcome=admitted|rejected|preempted|
    deferred}] and the latency histogram [tenants.admit_latency_ms]
    (wall-clock from entry to verdict, so e9/e18 report percentiles
    instead of raw counts). [Admitted]/[Rejected] are recorded by
    {!admit}, [Preempted] by {!depart} with [~reason:`Preempted], and
    [Deferred] by the market layer via {!record_outcome} when an
    auction postpones a priced-out bidder. *)

type outcome = Admitted | Rejected | Preempted | Deferred

val outcome_to_string : outcome -> string
val record_outcome : t -> outcome -> unit

type admission_error =
  | Already_present
  | Certification of Flexbpf.Analysis.rejection
  | Access_control of Flexbpf.Compose.violation list
  | Compilation of Compiler.Incremental.error

val pp_admission_error : Format.formatter -> admission_error -> unit

(** Admit a tenant extension program (owner = the tenant name). On
    success the network has been live-patched and the tenant is
    registered. [attrs] are recorded on the [tenant.admit] span after
    the tenant name; the market records the winning bid's value,
    density, and quoted unit price there. *)
val admit :
  ?attrs:(string * Obs.Trace.value) list -> t -> Flexbpf.Ast.program ->
  (tenant * Compiler.Incremental.report, admission_error) result

type departure_error = Unknown_tenant | Departure_failed of string

val pp_departure_error : Format.formatter -> departure_error -> unit

(** Remove every element, map, and parser rule the tenant owns.
    [~reason:`Preempted] marks a market eviction: the departure span is
    tagged and the [Preempted] outcome recorded; the removal path is
    identical (same patch, same rollback guarantees). *)
val depart :
  ?reason:[ `Voluntary | `Preempted ] -> t -> string ->
  (Compiler.Incremental.report, departure_error) result

val active_count : t -> int

(** Cross-tenant sharable logic (optimization report). *)
val sharable : t -> (string * string) list
