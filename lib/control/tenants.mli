(** Tenant lifecycle management (§3's deployment scenario).

    Tenants provide extension programs that are dynamically injected
    into and removed from the network, admitted after access-control
    validation and isolated via VLANs. Admission pipeline: certify
    bounded execution → namespace → access-control check → VLAN
    allocation and guarding → incremental compilation of the injection
    patch onto the live deployment. *)

type tenant = {
  tenant_name : string;
  vlan : int;
  arrived_at : float;
  mutable element_names : string list;
  mutable map_names : string list;
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
  exports : string list; (* infra maps tenants may read *)
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
  ?exports:string list -> ?shards:int -> sim:Netsim.Sim.t ->
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

type policy_admission_error =
  | Policy_error of Policy.Compile.error
      (** the term does not lower (switch tests, multicast, ...) *)
  | Admission of admission_error

val pp_policy_admission_error :
  Format.formatter -> policy_admission_error -> unit

(** Admit a tenant expressed as a policy term instead of a hand-written
    FlexBPF program: the term is lowered to a uniform overlay block
    ({!Policy.Compile.lower_block}) — identical on every switch, leaves
    without an explicit egress defer to infrastructure routing — and
    then admitted through the ordinary pipeline (certification,
    namespacing, access control, VLAN guarding). *)
val admit_policy :
  t -> name:string -> Policy.Ast.pol ->
  (tenant * Compiler.Incremental.report, policy_admission_error) result

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
