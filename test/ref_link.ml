(* The two-event link model that [Netsim.Link] replaced, kept as the
   reference side of the link differential in test_netsim. [transmit]
   schedules a departure thunk at the end of serialization; the
   departure decrements the depth, counts the packet, reads the extra
   delay and schedules the arrival thunk. Counters are plain fields. *)

type t = {
  sim : Netsim.Sim.t;
  bandwidth : float;
  delay : float;
  queue_capacity : int;
  ecn_threshold : int;
  deliver : Netsim.Packet.t -> unit;
  mutable busy_until : float;
  mutable depth : int;
  mutable up : bool;
  mutable loss_prob : float;
  mutable loss_rng : Random.State.t option;
  mutable extra_delay : float;
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable drops : int;
  mutable fault_drops : int;
  mutable ecn_marks : int;
  mutable depth_sum : int;
  mutable enqueues : int;
}

let create ~sim ~bandwidth ~delay ~queue_capacity ~ecn_threshold ~deliver =
  { sim; bandwidth; delay; queue_capacity; ecn_threshold; deliver;
    busy_until = 0.; depth = 0; up = true; loss_prob = 0.; loss_rng = None;
    extra_delay = 0.; tx_packets = 0; tx_bytes = 0; drops = 0;
    fault_drops = 0; ecn_marks = 0; depth_sum = 0; enqueues = 0 }

let set_up t up = t.up <- up

let set_loss t ?rng prob =
  t.loss_prob <- prob;
  if rng <> None then t.loss_rng <- rng

let set_extra_delay t d = t.extra_delay <- d

let mean_depth t =
  if t.enqueues = 0 then 0.
  else float_of_int t.depth_sum /. float_of_int t.enqueues

let transmit t (pkt : Netsim.Packet.t) =
  let now = Netsim.Sim.now t.sim in
  if not t.up then begin
    t.drops <- t.drops + 1;
    false
  end
  else if t.depth >= t.queue_capacity then begin
    t.drops <- t.drops + 1;
    false
  end
  else if
    t.loss_prob > 0.
    && (match t.loss_rng with
        | Some rng -> Random.State.float rng 1.0 < t.loss_prob
        | None -> false)
  then begin
    t.drops <- t.drops + 1;
    t.fault_drops <- t.fault_drops + 1;
    false
  end
  else begin
    if t.ecn_threshold > 0 && t.depth >= t.ecn_threshold
       && Netsim.Packet.has_header pkt "ipv4"
    then begin
      Netsim.Packet.set_field pkt "ipv4" "ecn" 1L;
      t.ecn_marks <- t.ecn_marks + 1
    end;
    let start = Float.max now t.busy_until in
    let departure =
      start +. (float_of_int (pkt.Netsim.Packet.size * 8) /. t.bandwidth)
    in
    t.busy_until <- departure;
    t.depth <- t.depth + 1;
    t.depth_sum <- t.depth_sum + t.depth;
    t.enqueues <- t.enqueues + 1;
    Netsim.Sim.at t.sim departure (fun () ->
        t.depth <- t.depth - 1;
        t.tx_packets <- t.tx_packets + 1;
        t.tx_bytes <- t.tx_bytes + pkt.Netsim.Packet.size;
        let arrival = departure +. t.delay +. t.extra_delay in
        Netsim.Sim.at t.sim arrival (fun () -> if t.up then t.deliver pkt));
    true
  end
