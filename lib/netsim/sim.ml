(** Discrete-event simulation engine.

    A simulation owns a virtual clock and an event queue. All model
    components (links, traffic generators, device runtimes, controllers)
    schedule callbacks against the same engine, which makes whole-network
    experiments deterministic and single-threaded.

    An event is an [int] code in the queue: a slot in the event slab
    below, which holds either a thunk ([at]/[after]) or a registered
    handler id and its [int] argument ([post]). Slots are recycled
    through a free list, so a [post] allocates nothing; a thunk event
    costs only its closure. *)

(* [ev_fn] values that are not handler ids *)
let thunk_ev = -1
let cancelled_ev = -2

type local = ..

type t = {
  clock : float array; (* [| now |], read unboxed by components *)
  stage : float array; (* [| time of the next [post] |] *)
  next : float array; (* [run]'s view of the earliest event time *)
  queue : Event_queue.t;
  mutable seq : int;
  mutable stopped : bool;
  (* [now]'s boxed copy of the clock, made at most once per event *)
  mutable now_box : float;
  mutable now_fresh : bool;
  (* event slab: an event's queue code is its slot *)
  mutable ev_fn : int array; (* handler id, [thunk_ev] or [cancelled_ev] *)
  mutable ev_arg : int array; (* handler argument; next free slot if free *)
  mutable thunks : (unit -> unit) array;
  mutable free : int; (* free-list head, -1 when the slab is full *)
  mutable cancelled : int; (* cancelled events still in the queue *)
  mutable handlers : (int -> unit) array;
  mutable n_handlers : int;
  mutable settlers : (unit -> bool) array;
  mutable n_settlers : int;
  mutable locals : local list;
  obs : Obs.Scope.t;
  events_c : int ref; (* handle for "sim.events" *)
}

let now t =
  if not t.now_fresh then begin
    t.now_box <- t.clock.(0);
    t.now_fresh <- true
  end;
  t.now_box

let no_handler (_ : int) = ()
let no_settle () = false

let create () =
  let obs = Obs.Scope.create () in
  let t =
    { clock = [| 0. |];
      stage = [| 0. |];
      next = [| 0. |];
      queue = Event_queue.create ();
      seq = 0;
      stopped = false;
      now_box = 0.;
      now_fresh = true;
      ev_fn = [||];
      ev_arg = [||];
      thunks = [||];
      free = -1;
      cancelled = 0;
      handlers = Array.make 8 no_handler;
      n_handlers = 0;
      settlers = Array.make 8 no_settle;
      n_settlers = 0;
      locals = [];
      obs;
      events_c = Obs.Metrics.counter (Obs.Scope.metrics obs) "sim.events" }
  in
  (* The tracer clock must read the clock cell that only exists once the
     record is built, so it is wired after construction. *)
  Obs.Scope.set_clock obs (fun () -> now t);
  t

let clock t = t.clock
let stage t = t.stage
let obs t = t.obs

(* Grow the slab and thread the new slots onto the free list. *)
let grow_slab t =
  let old = Array.length t.ev_fn in
  let cap = if old = 0 then 64 else 2 * old in
  let fn = Array.make cap cancelled_ev and arg = Array.make cap 0 in
  let thunks = Array.make cap ignore in
  Array.blit t.ev_fn 0 fn 0 old;
  Array.blit t.ev_arg 0 arg 0 old;
  Array.blit t.thunks 0 thunks 0 old;
  for s = old to cap - 1 do
    arg.(s) <- (if s = cap - 1 then t.free else s + 1)
  done;
  t.ev_fn <- fn;
  t.ev_arg <- arg;
  t.thunks <- thunks;
  t.free <- old

let alloc t =
  if t.free < 0 then grow_slab t;
  let s = t.free in
  t.free <- t.ev_arg.(s);
  s

let release t s =
  t.ev_arg.(s) <- t.free;
  t.free <- s

let in_the_past name time now =
  invalid_arg (Printf.sprintf "%s: time %.9f is before now %.9f" name time now)

(** [at t time f] schedules [f] to run at absolute virtual [time].
    Scheduling in the past raises [Invalid_argument]. *)
let at t time thunk =
  if time < t.clock.(0) then in_the_past "Sim.at" time t.clock.(0);
  t.seq <- t.seq + 1;
  let s = alloc t in
  t.ev_fn.(s) <- thunk_ev;
  t.thunks.(s) <- thunk;
  Event_queue.push t.queue ~time ~seq:t.seq s

(** [after t delay f] schedules [f] to run [delay] seconds from now. *)
let after t delay thunk = at t (t.clock.(0) +. delay) thunk

let register t f =
  if t.n_handlers = Array.length t.handlers then begin
    let a = Array.make (2 * t.n_handlers) no_handler in
    Array.blit t.handlers 0 a 0 t.n_handlers;
    t.handlers <- a
  end;
  t.handlers.(t.n_handlers) <- f;
  t.n_handlers <- t.n_handlers + 1;
  t.n_handlers - 1

let post t h arg =
  if t.stage.(0) < t.clock.(0) then in_the_past "Sim.post" t.stage.(0) t.clock.(0);
  if h < 0 || h >= t.n_handlers then invalid_arg "Sim.post: unknown handler";
  t.seq <- t.seq + 1;
  let s = alloc t in
  t.ev_fn.(s) <- h;
  t.ev_arg.(s) <- arg;
  Event_queue.push_cell t.queue t.stage ~seq:t.seq s;
  s

let cancel t ev =
  let h = t.ev_fn.(ev) in
  if h <> cancelled_ev then begin
    if h = thunk_ev then t.thunks.(ev) <- ignore;
    t.ev_fn.(ev) <- cancelled_ev;
    t.cancelled <- t.cancelled + 1
  end

let locals t = t.locals
let add_local t l = t.locals <- l :: t.locals

let settle_later t f =
  if t.n_settlers = Array.length t.settlers then begin
    let a = Array.make (2 * t.n_settlers) no_settle in
    Array.blit t.settlers 0 a 0 t.n_settlers;
    t.settlers <- a
  end;
  t.settlers.(t.n_settlers) <- f;
  t.n_settlers <- t.n_settlers + 1

(* Run every pending settle callback; keep those that return [true].
   Slots past [n_settlers] may hold stale callbacks: they belong to this
   simulation's own components, so keeping them alive costs nothing. *)
let settle t =
  let n = t.n_settlers in
  if n > 0 then begin
    let kept = ref 0 in
    for i = 0 to n - 1 do
      let f = t.settlers.(i) in
      if f () then begin
        if !kept < i then t.settlers.(!kept) <- f;
        incr kept
      end
    done;
    t.n_settlers <- !kept
  end

let stop t = t.stopped <- true

let pending t = Event_queue.length t.queue - t.cancelled

(** Timestamp of the earliest pending event, [infinity] when the queue
    is drained. The sharded engine uses this to compute the global
    conservative-lookahead window. *)
let next_time t =
  if pending t = 0 then infinity else Event_queue.min_time t.queue

(** Run events until the queue drains, [until] is reached, or [stop] is
    called. Returns the number of events executed. *)
let run ?until t =
  let horizon = match until with Some h -> h | None -> infinity in
  t.stopped <- false;
  let executed = ref 0 in
  let continue = ref true in
  while !continue && not t.stopped do
    Event_queue.min_time_cell t.queue t.next;
    if t.next.(0) = infinity || (t.cancelled > 0 && pending t = 0) then
      continue := false
    else if t.next.(0) > horizon then begin
      t.clock.(0) <- horizon;
      t.now_fresh <- false;
      continue := false
    end
    else begin
      let s = Event_queue.pop_exn t.queue in
      let h = t.ev_fn.(s) in
      if h = cancelled_ev then begin
        (* skipped: the clock does not move and nothing is counted *)
        release t s;
        t.cancelled <- t.cancelled - 1
      end
      else begin
        t.clock.(0) <- t.next.(0);
        t.now_fresh <- false;
        if h = thunk_ev then begin
          let f = t.thunks.(s) in
          t.thunks.(s) <- ignore;
          release t s;
          f ()
        end
        else begin
          let arg = t.ev_arg.(s) in
          release t s;
          t.handlers.(h) arg
        end;
        incr t.events_c;
        incr executed
      end
    end
  done;
  settle t;
  !executed

(** Periodic task: re-schedules itself every [period] seconds until the
    callback returns [false]. *)
let rec every t ~period f =
  after t period (fun () -> if f () then every t ~period f)
