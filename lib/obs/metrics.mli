(** Metrics registry: counters, gauges, and log-scale histograms keyed
    by name + label set.

    The registry is a plain lookup structure; handles returned by
    [counter]/[gauge]/[histogram] are the hot-path interface — callers
    resolve a handle once (hashing name and labels) and then mutate it
    directly, so instrumented fast paths pay one pointer write per
    event. Counters are literally [int ref] so existing hot paths that
    hold a cell keep working unchanged.

    Readout order is deterministic: [to_list] sorts by (name, labels),
    so exports are byte-stable across runs. *)

type t

(** Label sets are small association lists; they are canonicalized
    (sorted by key) at interning time, so label order at the call site
    does not create distinct series. *)
type labels = (string * string) list

val create : unit -> t

(** {2 Handles} *)

(** Find-or-create the counter behind [name]+[labels].
    @raise Invalid_argument if the series exists with another type. *)
val counter : t -> ?labels:labels -> string -> int ref

(** Find-or-create a gauge (a mutable float cell). *)
val gauge : t -> ?labels:labels -> string -> float ref

type histogram

(** Find-or-create a log-scale histogram. *)
val histogram : t -> ?labels:labels -> string -> histogram

(** {2 Convenience (resolve + mutate in one call)} *)

val incr : t -> ?labels:labels -> ?by:int -> string -> unit
val set_gauge : t -> ?labels:labels -> string -> float -> unit
val observe : t -> ?labels:labels -> string -> float -> unit

(** Value of a counter series, 0 when absent. *)
val get_counter : t -> ?labels:labels -> string -> int

(** {2 Merge (per-domain accumulators)}

    Sharded simulations give every shard a private registry its domain
    mutates without coordination; exports merge them. Counters add,
    histograms add bucket-wise, and gauges add (shard gauges hold
    per-shard occupancies whose network-wide value is the total).
    Merging is insensitive to registry iteration order because readout
    sorts, so a fixed merge order yields byte-stable exports. *)

(** Accumulate every series of the second registry into [into],
    creating series as needed.
    @raise Invalid_argument if a series exists in both with different
    metric kinds. *)
val merge_into : into:t -> t -> unit

(** Fresh registry holding the merge of the given registries in order. *)
val merged : t list -> t

(** {2 Histograms} *)

module Histogram : sig
  (** Buckets are geometric with ratio [base] (about 19% relative
      resolution); values at or below 0 land in a dedicated zero
      bucket. *)

  val base : float

  val observe : histogram -> float -> unit
  val count : histogram -> int
  val sum : histogram -> float

  (** [quantile h q] for [q] in [0,1]: the upper bound of the bucket
      holding the rank-[ceil q*count] observation — always within a
      factor of [base] above the true empirical quantile. 0 on an
      empty histogram. *)
  val quantile : histogram -> float -> float
end

(** {2 Readout} *)

type value =
  | Counter of int
  | Gauge of float
  | Summary of { count : int; sum : float; q50 : float; q90 : float; q99 : float }

(** Every series, sorted by (name, labels). *)
val to_list : t -> (string * labels * value) list

(** Counter series with no labels, sorted by name. *)
val counters_list : t -> (string * int) list

(** Drop every series (test isolation). *)
val reset : t -> unit
