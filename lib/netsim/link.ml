(** Unidirectional links with a drop-tail queue, serialization delay,
    propagation delay, and ECN marking.

    The queue is modeled analytically and a hop costs one event. A link
    is a FIFO with deterministic serialization, so a packet's departure
    time is known when it is accepted: it goes into a ring of departure
    times, and only its arrival is scheduled. Departures are settled
    lazily — the ring is drained up to the clock at each transmit, at
    each arrival, in the accessors, and when [Sim.run] returns — so the
    queue depth, ECN marks and the tx counters read what a separate
    departure event would have produced. Between enqueue and arrival
    the packet waits in an in-flight slab whose slot is the arrival
    event's argument. *)

type t = {
  sim : Sim.t;
  clock : float array; (* the simulation's clock cell *)
  stage : float array; (* the simulation's post-time cell *)
  name : string;
  bandwidth : float; (* bits per second *)
  delay : float; (* propagation, seconds *)
  queue_capacity : int; (* packets, excluding the one in service *)
  ecn_threshold : int; (* mark when depth >= threshold; 0 disables *)
  mutable deliver : Packet.t -> unit;
  mutable up : bool;
  (* fault injection (Faults): probabilistic loss and added latency,
     both zero outside an armed fault window *)
  mutable loss_prob : float;
  mutable loss_rng : Random.State.t option;
  mutable extra_delay : float;
  (* departure ring: accepted packets not yet serialized, oldest at
     [head]; its occupancy is the queue depth. Grown on demand up to
     [queue_capacity]. *)
  mutable dep_time : float array;
  mutable dep_slot : int array; (* the packet's in-flight slot *)
  mutable head : int;
  mutable depth : int;
  (* in-flight slab: packets awaiting their arrival event *)
  mutable fl_pkt : Packet.t array;
  mutable fl_ev : int array; (* arrival event id; next free slot if free *)
  mutable fl_free : int;
  mutable arrive : int; (* the arrival handler's id *)
  mutable settle : unit -> bool; (* the end-of-run drain *)
  mutable listed : bool; (* [settle] is on the simulation's list *)
  (* statistics: handles into the simulation's unified registry,
     labeled by link name *)
  tx_packets : int ref;
  tx_bytes : int ref;
  drops : int ref;
  fault_drops : int ref;
  ecn_marks : int ref;
  mutable depth_sum : int; (* queue depth summed over enqueues *)
  mutable enqueues : int;
}

(* The ring position of the [k]th queued packet, oldest first. *)
let ring_index t k =
  let i = t.head + k in
  if i >= Array.length t.dep_time then i - Array.length t.dep_time else i

(* Settle every departure due by now: the packet has been serialized.
   Its slot is still held, since an arrival drains before it frees. *)
let drain t =
  let now = t.clock.(0) in
  while t.depth > 0 && t.dep_time.(t.head) <= now do
    incr t.tx_packets;
    t.tx_bytes :=
      !(t.tx_bytes) + t.fl_pkt.(t.dep_slot.(t.head)).Packet.size;
    t.head <- (if t.head + 1 = Array.length t.dep_time then 0 else t.head + 1);
    t.depth <- t.depth - 1
  done

let arrive t slot =
  drain t;
  let pkt = t.fl_pkt.(slot) in
  t.fl_pkt.(slot) <- Packet.dummy;
  t.fl_ev.(slot) <- t.fl_free;
  t.fl_free <- slot;
  if t.up then t.deliver pkt

let create ~sim ~name ?(bandwidth = 10e9) ?(delay = 1e-6) ?(queue_capacity = 256)
    ?(ecn_threshold = 0) ?(deliver = fun _ -> ()) () =
  if not (delay >= 0.) then invalid_arg "Link.create: negative delay";
  let metrics = Obs.Scope.metrics (Sim.obs sim) in
  let labels = [ ("link", name) ] in
  let c n = Obs.Metrics.counter metrics ~labels n in
  let t =
    { sim; clock = Sim.clock sim; stage = Sim.stage sim; name; bandwidth;
      delay; queue_capacity; ecn_threshold; deliver; up = true; loss_prob = 0.;
      loss_rng = None; extra_delay = 0.; dep_time = [||]; dep_slot = [||];
      head = 0; depth = 0; fl_pkt = [||]; fl_ev = [||];
      fl_free = -1; arrive = -1; settle = (fun () -> false); listed = false;
      tx_packets = c "link.tx_packets"; tx_bytes = c "link.tx_bytes";
      drops = c "link.drops"; fault_drops = c "link.fault_drops";
      ecn_marks = c "link.ecn_marks"; depth_sum = 0; enqueues = 0 }
  in
  t.arrive <- Sim.register sim (arrive t);
  t.settle <-
    (fun () ->
      drain t;
      t.listed <- t.depth > 0;
      t.listed);
  t

let name t = t.name
let set_deliver t f = t.deliver <- f
let set_up t up = t.up <- up

(** Arm (or clear, with [prob = 0.]) probabilistic loss. Draws come from
    [rng], so a shared seeded state keeps whole-runs deterministic. *)
let set_loss t ?rng prob =
  t.loss_prob <- prob;
  if rng <> None then t.loss_rng <- rng

(** Extra per-packet propagation delay, seconds (fault windows). It is
    read when a packet departs: the arrivals of packets still queued
    are re-posted under the new delay. *)
let set_extra_delay t d =
  if not (d >= 0.) then invalid_arg "Link.set_extra_delay: negative delay";
  drain t;
  if d <> t.extra_delay then begin
    t.extra_delay <- d;
    for k = 0 to t.depth - 1 do
      let i = ring_index t k in
      let slot = t.dep_slot.(i) in
      Sim.cancel t.sim t.fl_ev.(slot);
      t.stage.(0) <- t.dep_time.(i) +. t.delay +. d;
      t.fl_ev.(slot) <- Sim.post t.sim t.arrive slot
    done
  end

let depth t = drain t; t.depth
let drops t = !(t.drops)
let fault_drops t = !(t.fault_drops)
let tx_packets t = drain t; !(t.tx_packets)
let tx_bytes t = drain t; !(t.tx_bytes)
let ecn_marks t = !(t.ecn_marks)

let mean_depth t =
  if t.enqueues = 0 then 0.
  else float_of_int t.depth_sum /. float_of_int t.enqueues

let serialization_time t (pkt : Packet.t) =
  float_of_int (pkt.Packet.size * 8) /. t.bandwidth

(* Ring and slab growth: rare, and never past what the queue admits. *)
let grow_ring t =
  let old = Array.length t.dep_time in
  let cap = Stdlib.min t.queue_capacity (Stdlib.max 4 (2 * old)) in
  let time = Array.make cap 0. and slot = Array.make cap 0 in
  for k = 0 to t.depth - 1 do
    let i = ring_index t k in
    time.(k) <- t.dep_time.(i);
    slot.(k) <- t.dep_slot.(i)
  done;
  t.dep_time <- time;
  t.dep_slot <- slot;
  t.head <- 0

let grow_slab t =
  let old = Array.length t.fl_pkt in
  let cap = Stdlib.max 4 (2 * old) in
  let pkt = Array.make cap Packet.dummy and ev = Array.make cap 0 in
  Array.blit t.fl_pkt 0 pkt 0 old;
  Array.blit t.fl_ev 0 ev 0 old;
  for s = old to cap - 1 do
    ev.(s) <- (if s = cap - 1 then t.fl_free else s + 1)
  done;
  t.fl_pkt <- pkt;
  t.fl_ev <- ev;
  t.fl_free <- old

(** Enqueue a packet for transmission. Returns [false] on drop (queue
    full or link down). *)
let transmit t pkt =
  drain t;
  if not t.up then begin
    incr t.drops;
    false
  end
  else if t.depth >= t.queue_capacity then begin
    incr t.drops;
    false
  end
  else if
    t.loss_prob > 0.
    && (match t.loss_rng with
        | Some rng -> Random.State.float rng 1.0 < t.loss_prob
        | None -> false)
  then begin
    incr t.drops;
    incr t.fault_drops;
    false
  end
  else begin
    if t.ecn_threshold > 0 && t.depth >= t.ecn_threshold
       && Packet.has_header pkt "ipv4"
    then begin
      Packet.set_field pkt "ipv4" "ecn" 1L;
      incr t.ecn_marks
    end;
    (* The transmitter is busy until the last queued departure; an empty
       queue means every departure so far is at or before now. *)
    let start =
      if t.depth = 0 then t.clock.(0)
      else t.dep_time.(ring_index t (t.depth - 1))
    in
    let departure = start +. serialization_time t pkt in
    if t.depth = Array.length t.dep_time then grow_ring t;
    let i = ring_index t t.depth in
    if t.fl_free < 0 then grow_slab t;
    let slot = t.fl_free in
    t.fl_free <- t.fl_ev.(slot);
    t.fl_pkt.(slot) <- pkt;
    t.dep_time.(i) <- departure;
    t.dep_slot.(i) <- slot;
    t.stage.(0) <- departure +. t.delay +. t.extra_delay;
    t.fl_ev.(slot) <- Sim.post t.sim t.arrive slot;
    t.depth <- t.depth + 1;
    t.depth_sum <- t.depth_sum + t.depth;
    t.enqueues <- t.enqueues + 1;
    if not t.listed then begin
      t.listed <- true;
      Sim.settle_later t.sim t.settle
    end;
    true
  end
