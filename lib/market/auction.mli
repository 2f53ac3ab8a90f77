(** Price-driven admission rounds over the plan/execute split.

    The auction keeps one price book per device architecture on the
    path. A clearing round (i) reads immutable resource snapshots,
    (ii) runs joint tâtonnement — each waiting tenant demands replicas
    from its cheapest book, each book's prices move against its own
    capacity — within a convergence budget, (iii) ranks the surviving
    bids by value density and admits winners through
    {!Control.Tenants.admit} (bid, density and price recorded on its
    span), i.e. the ordinary certify → plan →
    [Runtime.Reconfig] pipeline, (iv) defers priced-out bidders and,
    when capacity is exhausted, preempts admitted [Best_effort] tenants
    of strictly lower density through {!Control.Tenants.depart}
    ([~reason:`Preempted] — the same patch/rollback path as a voluntary
    departure, so old-XOR-new is never violated). [Protected] tenants
    are never preempted. *)

type admitted = {
  ad_tenant : Tenant.t;
  ad_at : float; (* virtual admission time *)
  ad_price : float; (* per-replica rent quoted at admission *)
  mutable ad_bid : Tenant.bid option; (* standing bid at current prices *)
  mutable ad_spend : float; (* accumulated rent across rounds *)
}

type round = {
  rd_index : int;
  rd_time : float; (* virtual time of the clearing *)
  rd_prices : (Targets.Arch.kind * (Prices.rkind * float) list) list;
  rd_iterations : int; (* tâtonnement steps spent *)
  rd_converged : bool;
  rd_bidders : int; (* waiting tenants at the start of the round *)
  rd_admitted : string list;
  rd_deferred : string list;
  rd_preempted : string list;
  rd_rejected : string list; (* dropped: pipeline reject or deferral cap *)
}

type t

(** [create ~tenants ~path ()] builds the market over a live tenant
    manager and its compile path. [max_deferrals] (default 50) bounds
    how many rounds a bidder may sit priced-out in the queue before
    being dropped as rejected. Prices are seeded from current snapshot
    occupancy. *)
val create :
  ?config:Prices.config -> ?max_deferrals:int ->
  tenants:Control.Tenants.t -> path:Targets.Device.t list -> unit -> t

(** Enqueue a bidder; duplicates (already waiting or admitted) are
    ignored. Nothing is placed until the next {!clear}. *)
val submit : t -> Tenant.t -> unit

(** Voluntary departure: an admitted tenant leaves through
    {!Control.Tenants.depart}; a waiting one just leaves the queue. *)
val withdraw : t -> string -> unit

(** One clearing round; returns its record (also appended to
    {!rounds}). *)
val clear : t -> round

(** Cheapest per-replica rent for a footprint at current prices. *)
val quote : t -> Targets.Resource.t -> float

val books : t -> (Targets.Arch.kind * Prices.t) list

(** (used, capacity) per book, from current device snapshots. *)
val occupancy :
  t -> (Targets.Arch.kind * (Targets.Resource.t * Targets.Resource.t)) list

val admitted : t -> admitted list
val find_admitted : t -> string -> admitted option
val waiting : t -> Tenant.t list

(** Clearing history, oldest first. *)
val rounds : t -> round list

val pp_round : Format.formatter -> round -> unit
