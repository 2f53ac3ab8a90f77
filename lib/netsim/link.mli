(** Unidirectional links with a drop-tail queue, serialization delay,
    propagation delay, and ECN marking.

    The queue is modeled analytically: the instantaneous depth is the
    number of packets accepted but not yet serialized, which is exact
    for a drop-tail FIFO and avoids per-byte events. Packets whose
    depth-at-enqueue reaches [ecn_threshold] get [ipv4.ecn] set. *)

type t

val create :
  sim:Sim.t -> name:string -> ?bandwidth:float -> ?delay:float ->
  ?queue_capacity:int -> ?ecn_threshold:int -> ?deliver:(Packet.t -> unit) ->
  unit -> t

(** The name given at creation ("src->dst" for topology links). *)
val name : t -> string

(** Set the receive-side callback (wired by the topology). *)
val set_deliver : t -> (Packet.t -> unit) -> unit

(** Take the link up or down; a down link rejects transmissions and
    discards in-flight deliveries. *)
val set_up : t -> bool -> unit

(** {2 Fault injection} (armed by [Faults] inside fault windows)} *)

(** Arm (or clear, with [prob = 0.]) probabilistic per-packet loss.
    Draws come from [rng] — sharing one seeded state across a run keeps
    fault placement deterministic. Without an rng no loss is injected. *)
val set_loss : t -> ?rng:Random.State.t -> float -> unit

(** Extra per-packet propagation delay in seconds (0. to clear). *)
val set_extra_delay : t -> float -> unit

(** Current queue depth in packets. *)
val depth : t -> int

val drops : t -> int

(** Drops caused by injected loss (subset of [drops]). *)
val fault_drops : t -> int
val tx_packets : t -> int
val tx_bytes : t -> int
val ecn_marks : t -> int

(** Mean queue depth at enqueue over accepted packets, each counting
    itself (0. before the first). *)
val mean_depth : t -> float

val serialization_time : t -> Packet.t -> float

(** Enqueue a packet for transmission; [false] on drop (queue full or
    link down). Delivery is scheduled on the link's simulation. *)
val transmit : t -> Packet.t -> bool
