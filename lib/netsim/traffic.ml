(** Workload generators.

    All generators are driven by the simulation clock and a seeded RNG,
    so experiments are reproducible. Generators emit packets through a
    user-supplied [send] callback: examples wire it to a host port, tests
    wire it to a sink. *)

type t = {
  sim : Sim.t;
  rng : Random.State.t;
  mutable active : bool;
}

let create ?(seed = 7) sim = { sim; rng = Random.State.make [| seed |]; active = true }

let stop t = t.active <- false

let exponential t ~mean = -.mean *. log (1. -. Random.State.float t.rng 1.)

(** Bounded Pareto, the canonical heavy-tailed flow-size model. *)
let pareto t ~alpha ~xmin ~xmax =
  let u = Random.State.float t.rng 1. in
  let ha = xmax ** alpha and la = xmin ** alpha in
  let x = (-.((u *. ha) -. u *. la -. ha) /. (ha *. la)) ** (-1. /. alpha) in
  Float.min xmax (Float.max xmin x)

(** Zipf-distributed rank sampler over [1, n]: rank r is drawn with
    probability proportional to 1/r^alpha — the canonical skewed
    popularity law for flow/rule reference streams. The normalizing
    CDF is precomputed once; each draw is one RNG call plus a binary
    search, and determinism follows from the seeded [t.rng]. *)
let zipf ?(alpha = 1.1) t ~n =
  let n = Stdlib.max 1 n in
  let cdf = Array.make n 0. in
  let total = ref 0. in
  for r = 0 to n - 1 do
    total := !total +. (1. /. (float_of_int (r + 1) ** alpha));
    cdf.(r) <- !total
  done;
  let total = !total in
  fun () ->
    let u = Random.State.float t.rng total in
    (* smallest rank whose cumulative mass covers u *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo + 1

(* The periodic sources below register one handler each and re-post it
   for every event, with the next event time in a one-cell float array:
   a source event allocates no closure and boxes no float. *)
let repost t id next ~stop arg =
  if t.active && next.(0) < stop then begin
    (Sim.stage t.sim).(0) <- next.(0);
    ignore (Sim.post t.sim id arg : int)
  end

(** Constant bit rate: [rate_pps] packets per second in [start, stop). *)
let cbr t ~rate_pps ~start ~stop ~send =
  let interval = 1. /. rate_pps in
  let next = [| start |] and id = ref 0 in
  id :=
    Sim.register t.sim (fun _ ->
        if t.active then begin
          send ();
          next.(0) <- next.(0) +. interval;
          repost t !id next ~stop 0
        end);
  repost t !id next ~stop 0

(** Poisson arrivals with rate [lambda] events/second in [start, stop). *)
let poisson t ~lambda ~start ~stop ~send =
  let next = [| start +. exponential t ~mean:(1. /. lambda) |] and id = ref 0 in
  id :=
    Sim.register t.sim (fun _ ->
        if t.active then begin
          send ();
          next.(0) <- next.(0) +. exponential t ~mean:(1. /. lambda);
          repost t !id next ~stop 0
        end);
  repost t !id next ~stop 0

(** Markovian on/off source: CBR bursts at [rate_pps] with exponentially
    distributed on and off periods. *)
let onoff t ~rate_pps ~mean_on ~mean_off ~start ~stop ~send =
  let interval = 1. /. rate_pps in
  (* [| next event time; end of the current on phase |]; an event's
     argument says whether it sends or wakes an on phase *)
  let cell = [| start; 0. |] and id = ref 0 in
  let send_ev = 1 and wake_ev = 0 in
  let on_phase () =
    if t.active && cell.(0) < stop then begin
      if cell.(0) < cell.(1) then repost t !id cell ~stop send_ev
      else begin
        cell.(0) <- cell.(0) +. exponential t ~mean:mean_off;
        repost t !id cell ~stop wake_ev
      end
    end
  in
  id :=
    Sim.register t.sim (fun ev ->
        if t.active then begin
          if ev = send_ev then begin
            send ();
            cell.(0) <- cell.(0) +. interval
          end
          else cell.(1) <- cell.(0) +. exponential t ~mean:mean_on;
          on_phase ()
        end);
  (Sim.stage t.sim).(0) <- start;
  ignore (Sim.post t.sim !id wake_ev : int)

(** Poisson flow arrivals with bounded-Pareto sizes (packets per flow). *)
let flow_arrivals t ~lambda ~alpha ~min_packets ~max_packets ~start ~stop
    ~start_flow =
  let rec tick time =
    if t.active && time < stop then
      Sim.at t.sim time (fun () ->
          if t.active then begin
            let size =
              int_of_float
                (pareto t ~alpha ~xmin:(float_of_int min_packets)
                   ~xmax:(float_of_int max_packets))
            in
            start_flow ~packets:(Stdlib.max 1 size);
            tick (time +. exponential t ~mean:(1. /. lambda))
          end)
  in
  tick (start +. exponential t ~mean:(1. /. lambda))

(** Attack ramp: rate grows linearly from 0 to [peak_pps] over
    [ramp_up] seconds, holds for [hold], then decays to 0 over
    [ramp_down]. Used by the DDoS experiments. *)
let ramp t ~peak_pps ~start ~ramp_up ~hold ~ramp_down ~send =
  let stop = start +. ramp_up +. hold +. ramp_down in
  let rate time =
    if time < start || time >= stop then 0.
    else if time < start +. ramp_up then peak_pps *. ((time -. start) /. ramp_up)
    else if time < start +. ramp_up +. hold then peak_pps
    else peak_pps *. (1. -. ((time -. start -. ramp_up -. hold) /. ramp_down))
  in
  let rec tick time =
    if t.active && time < stop then begin
      let r = rate time in
      let next = if r < 1. then time +. 0.01 else time +. (1. /. r) in
      Sim.at t.sim time (fun () ->
          if t.active then begin
            if r >= 1. then send ();
            tick next
          end)
    end
  in
  tick start

(* Packet factories ------------------------------------------------- *)

(* Non-optional constructors and one boxed address each for the
   ethernet and ipv4 headers: nothing allocated but the packet. *)
let tcp_packet ?(size = 1000) ?(flags = Packet.tcp_flag_ack) ~src ~dst ~sport
    ~dport ~born () =
  let src = Int64.of_int src and dst = Int64.of_int dst in
  Packet.v ~size ~born
    [ Packet.ethernet ~src ~dst ();
      Packet.ipv4 ~src ~dst ();
      Packet.tcp_v ~sport:(Int64.of_int sport) ~dport:(Int64.of_int dport)
        ~seqno:0L ~ackno:0L ~flags ]

(** SYN packet with a spoofed random source, as emitted by flood attacks. *)
let spoofed_syn t ~dst ~dport ~born =
  let src = 100000 + Random.State.int t.rng 900000 in
  let sport = 1024 + Random.State.int t.rng 60000 in
  tcp_packet ~size:64 ~flags:Packet.tcp_flag_syn ~src ~dst ~sport ~dport ~born ()
