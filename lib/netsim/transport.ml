(** Minimal reliable window-based transport with pluggable congestion
    control.

    The paper's "live infrastructure customization" use case swaps
    congestion-control algorithms at runtime across hosts and NICs. This
    transport provides the substrate: flows are window-limited, receivers
    echo ECN marks in ACKs, and the CC policy is a record of callbacks
    that the apps layer backs with interpreted FlexBPF blocks — so a CC
    algorithm really is a reloadable network program. *)

type cc = {
  cc_name : string;
  init_cwnd : float;
  on_ack : cwnd:float -> ecn:bool -> rtt:float -> float;
  on_loss : cwnd:float -> float;
}

(** Additive-increase / multiplicative-decrease baseline (Reno-like). *)
let reno =
  { cc_name = "reno";
    init_cwnd = 10.;
    on_ack = (fun ~cwnd ~ecn ~rtt:_ -> if ecn then Float.max 1. (cwnd /. 2.) else cwnd +. (1. /. cwnd));
    on_loss = (fun ~cwnd -> Float.max 1. (cwnd /. 2.)) }

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

type endpoint = {
  node : Node.t;
  mutable cc : cc;
  mutable flows : flow list;
  stack : t;
}

and t = {
  sim : Sim.t;
  mutable rto : float;
  endpoints : (int, endpoint) Hashtbl.t; (* node id -> endpoint *)
  mutable completed : int;
  mutable flow_counter : int;
  mutable on_complete : flow -> unit;
}

let create ?(rto = 0.05) sim =
  { sim; rto; endpoints = Hashtbl.create 16; completed = 0; flow_counter = 0;
    on_complete = ignore }

let completed t = t.completed
let set_on_complete t f = t.on_complete <- f

let endpoint t node_id = Hashtbl.find_opt t.endpoints node_id

(** Swap the CC algorithm on a host endpoint — the runtime-reprogramming
    hook. Existing flows pick up the new policy on their next ACK. *)
let set_cc t node_id cc =
  match endpoint t node_id with
  | Some ep -> ep.cc <- cc
  | None -> invalid_arg "Transport.set_cc: no endpoint on node"

let find_flow ep ~sport ~dport =
  List.find_opt (fun f -> f.sport = sport && f.dport = dport) ep.flows

let data_packet flow ~seq ~born ~ecn_echo:_ =
  let pkt =
    Traffic.tcp_packet ~size:flow.pkt_size ~flags:0L ~src:flow.src.Node.id
      ~dst:flow.dst_id ~sport:flow.sport ~dport:flow.dport ~born ()
  in
  Packet.set_field pkt "tcp" "seq" (Int64.of_int seq);
  pkt

let ack_packet ~src_id ~dst_id ~sport ~dport ~seq ~ecn ~born =
  let pkt =
    Traffic.tcp_packet ~size:64 ~flags:Packet.tcp_flag_ack ~src:src_id
      ~dst:dst_id ~sport ~dport ~born ()
  in
  Packet.set_field pkt "tcp" "ack" (Int64.of_int seq);
  (* ECN echo rides in a tcp flag bit in real stacks; metadata here. *)
  Packet.set_meta pkt "ecn_echo" (if ecn then 1L else 0L);
  pkt

let rec pump t ep flow =
  while
    flow.in_flight < int_of_float flow.cwnd && flow.next_seq < flow.total
  do
    let seq = flow.next_seq in
    flow.next_seq <- seq + 1;
    flow.in_flight <- flow.in_flight + 1;
    send_seq t ep flow seq
  done

and send_seq t ep flow seq =
  let now = Sim.now t.sim in
  Hashtbl.replace flow.send_times seq now;
  let pkt = data_packet flow ~seq ~born:now ~ecn_echo:false in
  Node.send flow.src ~port:0 pkt;
  arm_rto t ep flow seq

and arm_rto t ep flow seq =
  Sim.after t.sim t.rto (fun () ->
      if flow.done_at = None && not (Hashtbl.mem flow.acked_set seq) then begin
        flow.retransmits <- flow.retransmits + 1;
        flow.cwnd <- ep.cc.on_loss ~cwnd:flow.cwnd;
        send_seq t ep flow seq
      end)

let handle_ack t ep pkt =
  let sport = Int64.to_int (Packet.field_exn pkt "tcp" "dport") in
  let dport = Int64.to_int (Packet.field_exn pkt "tcp" "sport") in
  match find_flow ep ~sport ~dport with
  | None -> ()
  | Some flow ->
    let seq = Int64.to_int (Packet.field_exn pkt "tcp" "ack") in
    if not (Hashtbl.mem flow.acked_set seq) then begin
      Hashtbl.replace flow.acked_set seq ();
      flow.acked <- flow.acked + 1;
      flow.in_flight <- Stdlib.max 0 (flow.in_flight - 1);
      let now = Sim.now t.sim in
      let rtt =
        match Hashtbl.find_opt flow.send_times seq with
        | Some sent -> now -. sent
        | None -> t.rto
      in
      let ecn = Packet.meta_default pkt "ecn_echo" 0L = 1L in
      flow.cwnd <- ep.cc.on_ack ~cwnd:flow.cwnd ~ecn ~rtt;
      if flow.acked >= flow.total then begin
        flow.done_at <- Some now;
        t.completed <- t.completed + 1;
        t.on_complete flow
      end
      else pump t ep flow
    end

let handle_data t ep pkt =
  (* Receiver side: ack every data packet, echoing the ECN mark. *)
  let now = Sim.now t.sim in
  let seq = Int64.to_int (Packet.field_exn pkt "tcp" "seq") in
  let sport = Int64.to_int (Packet.field_exn pkt "tcp" "dport") in
  let dport = Int64.to_int (Packet.field_exn pkt "tcp" "sport") in
  let src_id = ep.node.Node.id in
  let dst_id = Int64.to_int (Packet.field_exn pkt "ipv4" "src") in
  let ecn = Packet.field_exn pkt "ipv4" "ecn" = 1L in
  let ack = ack_packet ~src_id ~dst_id ~sport ~dport ~seq ~ecn ~born:now in
  Node.send ep.node ~port:0 ack

(** Install the transport as the packet handler of a host node. Packets
    that are not TCP to this node are passed to [fallback]. *)
let attach t (node : Node.t) ?(fallback = fun _ ~in_port:_ _ -> ()) () =
  let ep = { node; cc = reno; flows = []; stack = t } in
  Hashtbl.replace t.endpoints node.Node.id ep;
  Node.set_handler node (fun n ~in_port pkt ->
      let mine =
        Packet.has_header pkt "tcp"
        && Packet.field pkt "ipv4" "dst" = Some (Int64.of_int node.Node.id)
      in
      if mine then begin
        let flags = Packet.field_exn pkt "tcp" "flags" in
        if Int64.logand flags Packet.tcp_flag_ack <> 0L then handle_ack t ep pkt
        else handle_data t ep pkt
      end
      else fallback n ~in_port pkt);
  ep

(** Start a flow of [packets] data packets from the attached host [src]
    toward host id [dst]. *)
let start_flow t ~src ~dst ?(pkt_size = 1000) ~packets () =
  let ep =
    match endpoint t src with
    | Some ep -> ep
    | None -> invalid_arg "Transport.start_flow: source not attached"
  in
  t.flow_counter <- t.flow_counter + 1;
  let flow =
    { flow_id = t.flow_counter; src = ep.node; dst_id = dst;
      sport = 10000 + t.flow_counter; dport = 80; total = packets; pkt_size;
      started = Sim.now t.sim; cwnd = ep.cc.init_cwnd; next_seq = 0;
      in_flight = 0; acked = 0; retransmits = 0; done_at = None;
      send_times = Hashtbl.create 64; acked_set = Hashtbl.create 64 }
  in
  ep.flows <- flow :: ep.flows;
  pump t ep flow;
  flow
