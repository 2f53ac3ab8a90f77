(** Measurement helpers shared by experiments and tests. *)

(** Streaming summary: count / mean / min / max / stddev (Welford). *)
module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val min : t -> float
  val max : t -> float
  val stddev : t -> float
  val pp : Format.formatter -> t -> unit
end

(** Fixed-capacity reservoir sample for percentile estimates. *)
module Reservoir : sig
  type t

  val create : ?capacity:int -> ?seed:int -> unit -> t
  val add : t -> float -> unit
  val count : t -> int

  (** [percentile t p] for [p] in [0, 100]. *)
  val percentile : t -> float -> float

  val median : t -> float
end
