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
    the packet waits in an in-flight slab. All links of a simulation
    share one arrival handler, whose argument names the link and the
    packet's slot, and one end-of-run settle callback over the links
    with departures still queued. *)

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
  reg : registry; (* the simulation's links *)
  index : int; (* this link's index in [reg] *)
  mutable settle_at : int; (* position on [reg]'s settle list, -1 off it *)
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

(* One per simulation: the links, by index, and the shared arrival
   handler, posted with (slot lsl index_bits) lor index. *)
and registry = {
  mutable arrival : int; (* the handler's id *)
  mutable links : t array;
  mutable n_links : int;
  mutable to_settle : int array; (* links with departures queued *)
  mutable n_to_settle : int;
  mutable scheduled : bool; (* [settle_all] is on the simulation's list *)
  mutable settle_all : unit -> bool;
}

type Sim.local += Links of registry

let index_bits = 24
let index_mask = (1 lsl index_bits) - 1

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

(* Take [t] off the settle list: its ring is empty. *)
let unlist t =
  let r = t.reg and p = t.settle_at in
  let last = r.to_settle.(r.n_to_settle - 1) in
  r.to_settle.(p) <- last;
  r.links.(last).settle_at <- p;
  r.n_to_settle <- r.n_to_settle - 1;
  t.settle_at <- -1

let arrive t slot =
  drain t;
  if t.depth = 0 && t.settle_at >= 0 then unlist t;
  let pkt = t.fl_pkt.(slot) in
  t.fl_pkt.(slot) <- Packet.dummy;
  t.fl_ev.(slot) <- t.fl_free;
  t.fl_free <- slot;
  if t.up then t.deliver pkt

(* Schedule [slot]'s arrival at the time in [t.stage]. *)
let post_arrival t slot =
  t.fl_ev.(slot) <-
    Sim.post t.sim t.reg.arrival ((slot lsl index_bits) lor t.index)

(* Drain every listed link; keep those with departures still queued. *)
let settle_listed r =
  let kept = ref 0 in
  for i = 0 to r.n_to_settle - 1 do
    let l = r.links.(r.to_settle.(i)) in
    drain l;
    if l.depth > 0 then begin
      r.to_settle.(!kept) <- l.index;
      l.settle_at <- !kept;
      incr kept
    end
    else l.settle_at <- -1
  done;
  r.n_to_settle <- !kept;
  r.scheduled <- !kept > 0;
  r.scheduled

(* Put [t], whose ring just became non-empty, on the settle list. A
   link whose own arrival empties its ring leaves the list then, so
   the run's end settles only links with departures still queued. *)
let list_to_settle t =
  let r = t.reg in
  if r.n_to_settle = Array.length r.to_settle then begin
    let a = Array.make (Stdlib.max 8 (2 * r.n_to_settle)) 0 in
    Array.blit r.to_settle 0 a 0 r.n_to_settle;
    r.to_settle <- a
  end;
  r.to_settle.(r.n_to_settle) <- t.index;
  t.settle_at <- r.n_to_settle;
  r.n_to_settle <- r.n_to_settle + 1;
  if not r.scheduled then begin
    r.scheduled <- true;
    Sim.settle_later t.sim r.settle_all
  end

let registry sim =
  match List.find_map (function Links r -> Some r | _ -> None) (Sim.locals sim) with
  | Some r -> r
  | None ->
    let r =
      { arrival = -1; links = [||]; n_links = 0; to_settle = [||];
        n_to_settle = 0; scheduled = false; settle_all = (fun () -> false) }
    in
    r.arrival <-
      Sim.register sim (fun arg ->
          arrive r.links.(arg land index_mask) (arg lsr index_bits));
    r.settle_all <- (fun () -> settle_listed r);
    Sim.add_local sim (Links r);
    r

let create ~sim ~name ?(bandwidth = 10e9) ?(delay = 1e-6) ?(queue_capacity = 256)
    ?(ecn_threshold = 0) ?(deliver = fun _ -> ()) () =
  if not (delay >= 0.) then invalid_arg "Link.create: negative delay";
  let metrics = Obs.Scope.metrics (Sim.obs sim) in
  let labels = [ ("link", name) ] in
  let c n = Obs.Metrics.counter metrics ~labels n in
  let reg = registry sim in
  if reg.n_links > index_mask then invalid_arg "Link.create: too many links";
  let t =
    { sim; clock = Sim.clock sim; stage = Sim.stage sim; name; bandwidth;
      delay; queue_capacity; ecn_threshold; deliver; up = true; loss_prob = 0.;
      loss_rng = None; extra_delay = 0.; dep_time = [||]; dep_slot = [||];
      head = 0; depth = 0; fl_pkt = [||]; fl_ev = [||];
      fl_free = -1; reg; index = reg.n_links; settle_at = -1;
      tx_packets = c "link.tx_packets"; tx_bytes = c "link.tx_bytes";
      drops = c "link.drops"; fault_drops = c "link.fault_drops";
      ecn_marks = c "link.ecn_marks"; depth_sum = 0; enqueues = 0 }
  in
  if reg.n_links = Array.length reg.links then begin
    let a = Array.make (Stdlib.max 8 (2 * reg.n_links)) t in
    Array.blit reg.links 0 a 0 reg.n_links;
    reg.links <- a
  end;
  reg.links.(reg.n_links) <- t;
  reg.n_links <- reg.n_links + 1;
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
      post_arrival t slot
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
    post_arrival t slot;
    t.depth <- t.depth + 1;
    t.depth_sum <- t.depth_sum + t.depth;
    t.enqueues <- t.enqueues + 1;
    if t.settle_at < 0 then list_to_settle t;
    true
  end
