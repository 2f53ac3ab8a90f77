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

(** Named monotone counters — an adapter over the unified
    [Obs.Metrics] registry. The type equality is exposed so a
    simulation's registry ([Obs.Scope.metrics (Sim.obs sim)]) can be
    passed anywhere a [Counters.t] is expected, unifying per-component
    accounting into one exportable registry. *)
module Counters : sig
  type t = Obs.Metrics.t

  val create : unit -> t
  val incr : ?by:int -> t -> string -> unit
  val get : t -> string -> int

  (** The cell behind [name], creating a zero entry if absent. Hot-path
      callers hold the ref and bump it directly instead of hashing the
      name per event. *)
  val handle : t -> string -> int ref

  (** Sorted by name. *)
  val to_list : t -> (string * int) list

  val pp : Format.formatter -> t -> unit
end
