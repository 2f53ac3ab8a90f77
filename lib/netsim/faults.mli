(** Deterministic, seeded fault injection.

    A fault plan is a declarative list of misbehaviors pinned to
    simulated time. Components opt in by binding: links are driven
    directly; devices (which live above netsim) register crash/restart
    callbacks; dRPC registries consult [rpc_decision] per call. All
    randomness flows through one seeded [Random.State], so a
    (seed, plan, workload) triple always injects the same faults at the
    same points. Unarmed plans cost the happy path nothing. *)

type link_fault =
  | Loss of float (* drop each packet with this probability *)
  | Extra_delay of float (* add seconds of propagation latency *)
  | Down (* partition: link refuses traffic *)

type fault =
  | Link_window of {
      link : string; (* glob over link names, e.g. "s1->*" *)
      start : float;
      stop : float;
      what : link_fault;
    }
  | Device_crash of {
      device : string;
      at : float;
      restart_after : float; (* seconds of downtime *)
    }
  | Drpc_window of {
      service : string; (* glob over service names *)
      start : float;
      stop : float;
      drop_prob : float; (* probability an invocation is lost *)
    }

type device_event = [ `Crash | `Restart ]

type t

val create : sim:Sim.t -> seed:int -> fault list -> t

val plan : t -> fault list

(** Injection counters: "faults.link.loss_windows", "faults.link.delay_windows",
    "faults.link.partitions", "faults.device.crashes", "faults.drpc.drops". *)
val counters : t -> Obs.Metrics.t

(** The injector's seeded random state (shared with armed links). *)
val rng : t -> Random.State.t

(** '*'-only glob used for link/service patterns. *)
val glob_matches : string -> string -> bool

(** Bind one link: matching [Link_window]s get start/stop events
    scheduled against it (clipped to the present when binding
    mid-window; elapsed windows are ignored). *)
val bind_link : t -> Link.t -> unit

(** Bind every link attached to a node's ports. *)
val bind_node_links : t -> Node.t -> unit

(** Register a device's crash/restart callbacks: each matching
    [Device_crash] fires [crash] at its time and [restart] after the
    downtime, notifying subscribers around both. *)
val register_device :
  t -> string -> crash:(unit -> unit) -> restart:(unit -> unit) -> unit

(** Observe device crash/restart events (controller re-resolution,
    replication failover). Late subscribers see all future events. *)
val subscribe : t -> (string -> device_event -> unit) -> unit

(** Per-invocation verdict for a dRPC [service] now: the highest
    matching in-window drop probability decides, via one rng draw. *)
val rpc_decision : t -> service:string -> [ `Deliver | `Drop ]
