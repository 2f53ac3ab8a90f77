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
