(** Unidirectional links with a drop-tail queue, serialization delay,
    propagation delay, and ECN marking.

    The queue is modeled analytically: [busy_until] tracks when the
    transmitter frees up, and the instantaneous queue depth is the number
    of packets accepted but not yet serialized. This is exact for a
    drop-tail FIFO and avoids per-byte events. *)

type t = {
  sim : Sim.t;
  name : string;
  bandwidth : float; (* bits per second *)
  delay : float; (* propagation, seconds *)
  queue_capacity : int; (* packets, excluding the one in service *)
  ecn_threshold : int; (* mark when depth >= threshold; 0 disables *)
  mutable deliver : Packet.t -> unit;
  mutable busy_until : float;
  mutable depth : int;
  mutable up : bool;
  (* fault injection (Faults): probabilistic loss and added latency,
     both zero outside an armed fault window *)
  mutable loss_prob : float;
  mutable loss_rng : Random.State.t option;
  mutable extra_delay : float;
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

let create ~sim ~name ?(bandwidth = 10e9) ?(delay = 1e-6) ?(queue_capacity = 256)
    ?(ecn_threshold = 0) ?(deliver = fun _ -> ()) () =
  let metrics = Obs.Scope.metrics (Sim.obs sim) in
  let labels = [ ("link", name) ] in
  let c n = Obs.Metrics.counter metrics ~labels n in
  { sim; name; bandwidth; delay; queue_capacity; ecn_threshold; deliver;
    busy_until = 0.; depth = 0; up = true; loss_prob = 0.; loss_rng = None;
    extra_delay = 0.; tx_packets = c "link.tx_packets";
    tx_bytes = c "link.tx_bytes"; drops = c "link.drops";
    fault_drops = c "link.fault_drops"; ecn_marks = c "link.ecn_marks";
    depth_sum = 0; enqueues = 0 }

let name t = t.name
let set_deliver t f = t.deliver <- f
let set_up t up = t.up <- up

(** Arm (or clear, with [prob = 0.]) probabilistic loss. Draws come from
    [rng], so a shared seeded state keeps whole-runs deterministic. *)
let set_loss t ?rng prob =
  t.loss_prob <- prob;
  if rng <> None then t.loss_rng <- rng

(** Extra per-packet propagation delay, seconds (fault windows). *)
let set_extra_delay t d = t.extra_delay <- d

let depth t = t.depth
let drops t = !(t.drops)
let fault_drops t = !(t.fault_drops)
let tx_packets t = !(t.tx_packets)
let tx_bytes t = !(t.tx_bytes)
let ecn_marks t = !(t.ecn_marks)

let mean_depth t =
  if t.enqueues = 0 then 0.
  else float_of_int t.depth_sum /. float_of_int t.enqueues

let serialization_time t (pkt : Packet.t) =
  float_of_int (pkt.Packet.size * 8) /. t.bandwidth

(** Enqueue a packet for transmission. Returns [false] on drop (queue
    full or link down). *)
let transmit t pkt =
  let now = Sim.now t.sim in
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
    let start = Float.max now t.busy_until in
    let departure = start +. serialization_time t pkt in
    t.busy_until <- departure;
    t.depth <- t.depth + 1;
    t.depth_sum <- t.depth_sum + t.depth;
    t.enqueues <- t.enqueues + 1;
    Sim.at t.sim departure (fun () ->
        t.depth <- t.depth - 1;
        incr t.tx_packets;
        t.tx_bytes := !(t.tx_bytes) + pkt.Packet.size;
        let arrival = departure +. t.delay +. t.extra_delay in
        Sim.at t.sim arrival (fun () -> if t.up then t.deliver pkt));
    true
  end
