(** Binary min-heap of timestamped events over unboxed parallel arrays.

    An event is a time, a tie-breaking sequence number and an [int]
    code, kept in three flat arrays, so pushing an event allocates
    nothing and a sift step moves no boxed value — this is the hot path
    under every simulated packet. Ties on the timestamp break by the
    caller-supplied [seq], making simulations deterministic: two events
    scheduled for the same instant fire in the order they were
    scheduled. What a code means is the caller's business ([Sim] uses
    it as a slot in its event slab). *)

type t

val create : unit -> t

val is_empty : t -> bool

(** Number of pending events. *)
val length : t -> int

(** [push t ~time ~seq code] inserts an event. [seq] orders ties on
    [time] and must be unique per queue (the simulation's scheduling
    sequence). *)
val push : t -> time:float -> seq:int -> int -> unit

(** [push_cell t cell ~seq code] is [push t ~time:cell.(0) ~seq code]:
    the time crosses the module boundary unboxed. *)
val push_cell : t -> float array -> seq:int -> int -> unit

(** Timestamp of the earliest event, [infinity] when empty. Read it
    before [pop_exn] to learn the popped event's time. *)
val min_time : t -> float

(** [min_time_cell t cell] writes [min_time t] into [cell.(0)] without
    boxing it. *)
val min_time_cell : t -> float array -> unit

(** Remove the earliest event and return its code.
    @raise Invalid_argument on an empty queue. *)
val pop_exn : t -> int
