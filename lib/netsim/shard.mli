(** Domain-sharded simulation with deterministic cross-shard merge.

    A network is described once as a {!Spec} (nodes plus links with
    explicit ports and latencies) and partitioned into shards. Each
    shard owns a private {!Sim.t} — its own event queue, virtual clock,
    and {!Obs.Scope} — and executes on an OCaml 5 domain. Cross-shard
    packets travel through bounded single-producer/single-consumer
    mailboxes and are merged into the destination shard at
    conservative-lookahead epoch barriers: every shard runs freely up
    to the window [gmin + L], where [gmin] is the earliest pending
    event network-wide and [L] the minimum cross-shard link latency, so
    no in-flight packet can arrive inside a window that is already
    executing.

    Determinism: the shard structure, the epoch windows, and the
    mailbox merge order (messages sorted by delivery time, ties by
    source shard then send order) depend only on the partition — never
    on how shards are packed onto domains — so a seeded run produces
    byte-identical per-shard registries and merged exports for any
    [domains] count. A single-shard partition bypasses the epoch
    machinery entirely and is exactly the existing single-domain
    [Sim.run].

    Boundary links keep their transmit-side semantics (serialization,
    drop-tail queue, ECN marking) in the sender's shard; the
    propagation latency is carried on the mailbox message and paid in
    the receiver's timeline, which is what makes the lookahead sound.
    The one observable divergence from a monolithic simulation is
    tie-breaking when two events share an exact timestamp across a
    shard boundary; counts and state are unaffected. *)

(** {1 Network specification} *)

module Spec : sig
  type t

  (** Dense node index within a spec. *)
  type node = int

  type link = {
    lk_a : node;
    lk_a_port : int;
    lk_b : node;
    lk_b_port : int;
    lk_bandwidth : float;
    lk_delay : float;
    lk_queue_capacity : int;
    lk_ecn_threshold : int;
  }

  val create : unit -> t
  val add_node : t -> name:string -> kind:Node.kind -> node
  val add_host : t -> string -> node
  val add_switch : t -> string -> node

  (** Declare a bidirectional connection; ports are assigned densely
      per endpoint in declaration order (matching
      [Topology.connect]'s next-free-port discipline). Returns the
      port used on each side. *)
  val connect :
    ?bandwidth:float -> ?delay:float -> ?queue_capacity:int ->
    ?ecn_threshold:int -> t -> node -> node -> int * int

  val node_count : t -> int
  val name : t -> node -> string
  val kind : t -> node -> Node.kind

  (** Links in declaration order. *)
  val links : t -> link list
end

(** {1 Partitions} *)

type partition

(** [partition spec ~shards f] assigns spec node [i] to shard [f i].
    @raise Invalid_argument when [f] maps outside [0, shards). *)
val partition : Spec.t -> shards:int -> (int -> int) -> partition

(** Everything in one shard: running this build is exactly the
    existing single-domain [Sim.run]. *)
val single : Spec.t -> partition

val partition_shards : partition -> int
val shard_of : partition -> Spec.node -> int

(** {1 Built networks} *)

(** A shard's view of the build: its simulation and the nodes it owns
    ([None] for nodes living in other shards). Model code installs
    handlers and schedules traffic against this view. *)
type view = {
  sh_index : int;
  sh_sim : Sim.t;
  sh_nodes : Node.t option array; (* spec node -> local instance *)
}

type t

(** Instantiate the spec under the partition. [init] runs once per
    shard, in shard order, to install handlers and traffic; seeding
    per spec-node keeps workloads identical across partitions.
    @raise Invalid_argument when a cross-shard link has a non-positive
    delay (there would be no lookahead). *)
val build : ?mailbox_capacity:int -> Spec.t -> partition -> init:(view -> unit) -> t

val shards : t -> int
val view : t -> int -> view
val views : t -> view list

(** Minimum cross-shard link latency; [infinity] when no link crosses
    a shard boundary. *)
val lookahead : t -> float

(** {1 Running} *)

type run_stats = {
  rs_events : int; (* events executed, all shards *)
  rs_epochs : int; (* barrier windows (0 for a single shard) *)
  rs_domains : int; (* domains actually used *)
  rs_messages : int; (* cross-shard packets merged *)
  rs_spilled : int; (* messages past mailbox capacity (spilled, not lost) *)
  rs_oversubscribed : bool;
      (* more domains requested than [Domain.recommended_domain_count] *)
}

(** Run the sharded network on [domains] OCaml domains (clamped to
    [1, shards]; default 1). When more domains are requested than the
    host recommends the run still proceeds — byte-identical, just
    slower — and the condition is reported via [rs_oversubscribed] and
    a [Logs] warning so benchmarks cannot silently degrade.

    Each shard's registry gains [shard.mailbox_in] / [shard.mailbox_spill]
    counters and its trace gains one [shard.run] span (attributes:
    shard, epochs, events) — all invariant under [domains]. *)
val run : ?domains:int -> ?until:float -> t -> run_stats

(** Merge-on-export: a fresh registry accumulating every shard's
    registry in shard order (see {!Obs.Metrics.merge_into}). *)
val merged_metrics : t -> Obs.Metrics.t

(** {1 Canonical sharded topology: the k-ary fat tree}

    Built once as a spec with per-pod shards (cores assigned
    round-robin across pod shards), O(1) arithmetic routing with
    flow-hash ECMP, and hooks for per-switch datapath programs. Used
    by the E16 multicore bench, the CLI [--shards] breakdowns, and the
    determinism tests. *)

module Fat_tree : sig
  type net

  (** [create ~k ()] builds the canonical k-ary fat tree (k even):
      (k/2)^2 cores, k pods of k/2 agg + k/2 edge switches, k/2 hosts
      per edge. [core_delay] must exceed the intra-pod delays; it is
      the lookahead of the per-pod partition.
      @raise Invalid_argument if [k] is odd. *)
  val create :
    ?k:int -> ?bandwidth:float -> ?host_delay:float -> ?pod_delay:float ->
    ?core_delay:float -> ?queue_capacity:int -> unit -> net

  val spec : net -> Spec.t

  (** Per-pod shards: pod members to their pod's shard, core [j] to
      shard [j mod k]. *)
  val pods_partition : net -> partition

  val k : net -> int
  val hosts : net -> Spec.node array
  val switch_count : net -> int
  val pod_of_host : net -> Spec.node -> int

  (** Hosts within pod [p]. *)
  val pod_hosts : net -> int -> Spec.node array

  (** Next-hop port at switch [node] toward host [dst] (flow-hash ECMP
      on the up-paths); -1 when [dst] is not a host id. *)
  val route : net -> node:Spec.node -> dst:Spec.node -> Packet.t -> int

  (** Install routing handlers on every node the view owns:
      switches call [on_switch] (the per-switch datapath hook) then
      forward; hosts call [on_deliver]. Unroutable packets count as
      node drops. *)
  val install :
    net -> view -> on_switch:(Node.t -> Packet.t -> unit) ->
    on_deliver:(Node.t -> Packet.t -> unit) -> unit
end
