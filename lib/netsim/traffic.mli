(** Workload generators.

    All generators are driven by the simulation clock and a seeded RNG,
    so experiments are reproducible. Generators emit packets through a
    user-supplied [send] callback. *)

type t

val create : ?seed:int -> Sim.t -> t

(** Stop every generator created from this handle. *)
val stop : t -> unit

val exponential : t -> mean:float -> float

(** Bounded Pareto, the canonical heavy-tailed flow-size model. *)
val pareto : t -> alpha:float -> xmin:float -> xmax:float -> float

(** [zipf ?alpha t ~n] precomputes a Zipf(alpha) sampler over ranks
    [1, n] (probability of rank r proportional to 1/r^alpha; [alpha]
    defaults to 1.1): the skewed popularity law driving the
    tiered-table (E17) and heavy-hitter workloads. Each call of the
    returned thunk draws one rank from the seeded RNG, so streams are
    reproducible. *)
val zipf : ?alpha:float -> t -> n:int -> unit -> int

(** Constant bit rate: [rate_pps] sends/second in [start, stop). *)
val cbr :
  t -> rate_pps:float -> start:float -> stop:float -> send:(unit -> unit) ->
  unit

(** Poisson arrivals at rate [lambda] events/second in [start, stop). *)
val poisson :
  t -> lambda:float -> start:float -> stop:float -> send:(unit -> unit) ->
  unit

(** Markovian on/off source: CBR bursts at [rate_pps] with exponential
    on and off periods. *)
val onoff :
  t -> rate_pps:float -> mean_on:float -> mean_off:float -> start:float ->
  stop:float -> send:(unit -> unit) -> unit

(** Poisson flow arrivals with bounded-Pareto sizes (packets/flow). *)
val flow_arrivals :
  t -> lambda:float -> alpha:float -> min_packets:int -> max_packets:int ->
  start:float -> stop:float -> start_flow:(packets:int -> unit) -> unit

(** Attack ramp: rate rises linearly to [peak_pps] over [ramp_up],
    holds for [hold], then decays over [ramp_down]. *)
val ramp :
  t -> peak_pps:float -> start:float -> ramp_up:float -> hold:float ->
  ramp_down:float -> send:(unit -> unit) -> unit

(** {2 Packet factories} *)

val tcp_packet :
  ?size:int -> ?flags:int64 -> src:int -> dst:int -> sport:int -> dport:int ->
  born:float -> unit -> Packet.t

(** SYN with a random spoofed source, as emitted by flood attacks. *)
val spoofed_syn : t -> dst:int -> dport:int -> born:float -> Packet.t
