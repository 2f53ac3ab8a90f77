(** Minimal reliable window-based transport with pluggable congestion
    control.

    The paper's "live infrastructure customization" use case swaps
    congestion-control algorithms at runtime across hosts and NICs.
    Flows are window-limited, receivers echo ECN marks in ACKs, and the
    CC policy is a record of callbacks — the apps layer backs them with
    interpreted FlexBPF blocks, so a CC algorithm really is a reloadable
    network program (see [Apps.Congestion.to_transport_cc]). *)

type cc = {
  cc_name : string;
  init_cwnd : float; (* packets *)
  on_ack : cwnd:float -> ecn:bool -> rtt:float -> float; (* -> new cwnd *)
  on_loss : cwnd:float -> float;
}

(** Additive-increase / multiplicative-decrease baseline; ECN treated
    as a loss signal. The default policy of new endpoints. *)
val reno : cc

type flow = {
  flow_id : int;
  src : Node.t;
  dst_id : int;
  sport : int;
  dport : int;
  total : int; (* packets to deliver *)
  pkt_size : int;
  started : float;
  mutable cwnd : float;
  mutable next_seq : int;
  mutable in_flight : int;
  mutable acked : int;
  mutable retransmits : int;
  mutable done_at : float option;
  mutable send_times : (int, float) Hashtbl.t;
  mutable acked_set : (int, unit) Hashtbl.t;
}

type endpoint

type t

val create : ?rto:float -> Sim.t -> t

val completed : t -> int
val set_on_complete : t -> (flow -> unit) -> unit

val endpoint : t -> int -> endpoint option

(** Swap the CC algorithm on a host endpoint — the runtime
    reprogramming hook. Existing flows pick up the new policy on their
    next ACK. @raise Invalid_argument if the node has no endpoint. *)
val set_cc : t -> int -> cc -> unit

(** Install the transport as the packet handler of a host node;
    non-transport packets go to [fallback]. *)
val attach :
  t -> Node.t -> ?fallback:(Node.t -> in_port:int -> Packet.t -> unit) ->
  unit -> endpoint

(** Start a flow of [packets] data packets toward host id [dst].
    @raise Invalid_argument if [src] is not attached. *)
val start_flow :
  t -> src:int -> dst:int -> ?pkt_size:int -> packets:int -> unit -> flow
