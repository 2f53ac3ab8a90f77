(** Discrete-event simulation engine.

    A simulation owns a virtual clock and an event queue. All model
    components (links, traffic generators, device runtimes, controllers)
    schedule callbacks against the same engine, which makes whole-network
    experiments deterministic and single-threaded.

    Two kinds of event share one queue. A thunk ([at], [after]) costs
    its closure. A posted event ([register] once, then [post] per
    event) names a handler and an [int] argument and allocates nothing;
    per-packet components (links, traffic sources, shard mailboxes)
    use it. *)

type t

val create : unit -> t

(** Current virtual time, seconds. *)
val now : t -> float

(** The simulation's observability scope: a unified metrics registry and
    span tracer whose clock is this simulation's virtual clock. All
    components running in the simulation instrument against it. *)
val obs : t -> Obs.Scope.t

(** {2 Unboxed cells}

    A float passed to or returned from a function in another module is
    boxed. Per-event code therefore reads the clock, and sets the time
    of the event it posts, through these one-cell float arrays. Their
    identity never changes, so a component may keep them. *)

(** [[| now |]]: read it; the engine alone writes it. *)
val clock : t -> float array

(** The time the next [post] schedules at: write it, then [post]. *)
val stage : t -> float array

(** [at t time f] schedules [f] at absolute virtual [time].
    @raise Invalid_argument if [time] is in the past. *)
val at : t -> float -> (unit -> unit) -> unit

(** [after t delay f] schedules [f] to run [delay] seconds from now. *)
val after : t -> float -> (unit -> unit) -> unit

(** {2 Posted events} *)

(** [register t f] adds a handler and returns its id. Handlers live as
    long as the simulation. *)
val register : t -> (int -> unit) -> int

(** [post t h arg] schedules handler [h] with [arg] at [(stage t).(0)]
    and returns the event's id, valid for [cancel] until the event runs.
    Ties on the time fire in scheduling order, as with [at].
    @raise Invalid_argument if the time is in the past or [h] is not
    registered. *)
val post : t -> int -> int -> int

(** [cancel t ev] drops a pending event: [run] skips it without moving
    the clock or counting it. [ev] must not have run yet — an event's
    id is recycled once it runs. *)
val cancel : t -> int -> unit

(** [settle_later t f] calls [f] when the current (or next) [run]
    returns, and again after every later run for as long as [f] returns
    [true]. Components that keep work implicit between events (a link's
    departures) use it so their counters are exact between runs. [f]
    must not call [settle_later]. *)
val settle_later : t -> (unit -> bool) -> unit

(** {2 Per-simulation component state}

    State a component module keeps once per simulation instead of once
    per instance — [Link]'s shared arrival handler and the links it
    dispatches to. A module extends [local] with its own constructor
    and finds its value among [locals]. *)

type local = ..

val locals : t -> local list
val add_local : t -> local -> unit

(** Stop the current [run] after the event in progress. *)
val stop : t -> unit

(** Number of pending events (cancelled ones excluded). *)
val pending : t -> int

(** Timestamp of the earliest pending event, [infinity] when the queue
    is drained (the sharded engine's lookahead input). A cancelled event
    not yet skipped may make it early, never late. *)
val next_time : t -> float

(** Run events until the queue drains, [until] is reached, or [stop] is
    called. Returns the number of events executed. When stopping at the
    [until] horizon the clock is advanced to it. *)
val run : ?until:float -> t -> int

(** [every t ~period f] re-runs [f] every [period] seconds until it
    returns [false]. *)
val every : t -> period:float -> (unit -> bool) -> unit
