(** Topology: node registry, wiring, and routing.

    Nodes get dense integer ids. Links are created in pairs, so every
    connection is bidirectional. Routing is computed by BFS from the
    destination, which naturally yields all equal-cost next hops for
    ECMP. *)

type t

val create : Sim.t -> t

val node_count : t -> int
val node : t -> int -> Node.t
val sim : t -> Sim.t
val nodes : t -> Node.t list
val hosts : t -> Node.t list
val switches : t -> Node.t list

val add_node : t -> name:string -> kind:Node.kind -> Node.t
val add_host : t -> string -> Node.t
val add_switch : t -> string -> Node.t

(** Wire two nodes with a pair of opposite links; returns the port used
    on each side. *)
val connect :
  ?bandwidth:float -> ?delay:float -> ?queue_capacity:int ->
  ?ecn_threshold:int -> t -> Node.t -> Node.t -> int * int

(** All equal-cost next-hop ports from [src] toward [dst], sorted. *)
val next_hops : t -> src:int -> dst:int -> int list

(** Deterministic ECMP choice by the packet's flow hash. *)
val ecmp_port : t -> src:int -> dst:int -> Packet.t -> int option

(** One shortest path as node ids, inclusive of the endpoints. *)
val shortest_path : t -> src:int -> dst:int -> int list option

(** Plain destination-based forwarding handler for non-programmable
    nodes: routes on [ipv4.dst] interpreted as a node id. *)
val forwarding_handler : t -> Node.t -> in_port:int -> Packet.t -> unit

(** {2 Builders} *)

type built = {
  topo : t;
  host_list : Node.t list;
  switch_list : Node.t list;
}

(** [h0 - s0 - s1 - ... - h1]. *)
val linear :
  sim:Sim.t -> ?switches:int -> ?link_bandwidth:float -> ?link_delay:float ->
  ?queue_capacity:int -> ?ecn_threshold:int -> unit -> built

(** Two-tier leaf/spine fabric; [switch_list] lists spines first. *)
val leaf_spine :
  sim:Sim.t -> ?spines:int -> ?leaves:int -> ?hosts_per_leaf:int ->
  ?link_bandwidth:float -> ?link_delay:float -> ?queue_capacity:int ->
  ?ecn_threshold:int -> unit -> built

(** Canonical k-ary fat tree (k even): (k/2)^2 cores, k pods.
    @raise Invalid_argument if [k] is odd. *)
val fat_tree :
  sim:Sim.t -> ?k:int -> ?link_bandwidth:float -> ?link_delay:float ->
  ?queue_capacity:int -> ?ecn_threshold:int -> unit -> built
