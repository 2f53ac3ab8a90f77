(** Packets with structured headers.

    Headers are structured (name + field assoc) rather than raw bytes:
    the FlexBPF parser model operates on declared header types, and
    structured packets keep the whole stack inspectable in tests. Field
    values are [int64] regardless of declared width; widths are enforced
    by the FlexBPF type checker, not at the packet level. *)

type header = { hname : string; mutable fields : (string * int64 ref) list }
(** Field values live in mutable cells: [set_field] writes in place, so
    the list spine never changes after construction — fast-path code may
    cache a field's cell for as long as the list identity is unchanged. *)

type t = {
  uid : int; (* unique per packet, for tracing *)
  mutable headers : header list; (* outermost first *)
  meta : (string, int64 ref) Hashtbl.t;
    (* per-packet metadata; ref cells so repeated writes to one key
       mutate in place (cacheable like header-field cells) *)
  size : int; (* bytes on the wire *)
  born : float; (* injection time *)
  mutable epoch : int; (* program version that processed this packet *)
  mutable shape_cache : string option; (* memoised [shape]; do not set —
                                          maintained by push/pop_header *)
}

val create : ?size:int -> ?born:float -> header list -> t

(** Reset the global uid counter (test isolation). *)
val reset_uid_counter : unit -> unit

val header : t -> string -> header option
val has_header : t -> string -> bool

val field : t -> string -> string -> int64 option

(** The field's value, [default] when the header or field is absent;
    allocates nothing (per-hop code). *)
val field_default : t -> string -> string -> int64 -> int64

(** @raise Invalid_argument when the field is absent. *)
val field_exn : t -> string -> string -> int64

(** @raise Invalid_argument when the header or field is absent. *)
val set_field : t -> string -> string -> int64 -> unit

(** [set_field] on an already-resolved header — the compiled fast path
    caches header lookups and writes through this. [hname] only labels
    the error; messages match [set_field]'s.
    @raise Invalid_argument when the field is absent. *)
val set_header_field : hname:string -> header -> string -> int64 -> unit

(** Push as the new outermost header. *)
val push_header : t -> header -> unit

(** Remove all headers with the given name. *)
val pop_header : t -> string -> unit

(** The header-name sequence as one string ("ethernet/ipv4/tcp").
    Parser acceptance depends only on this shape, so it serves as a
    compact memo key; computed once per packet. *)
val shape : t -> string

val meta : t -> string -> int64 option
val meta_default : t -> string -> int64 -> int64
val set_meta : t -> string -> int64 -> unit

(** The cell bound to [key], created (holding 0) if absent — for code
    that writes the same key repeatedly and wants to cache the cell. *)
val meta_cell : t -> string -> int64 ref

(** {2 Standard header constructors}

    Addresses are plain integers: the simulator identifies hosts by
    small ints, keeping routing tables and match rules readable. *)

val ethernet : src:int64 -> dst:int64 -> ?ethertype:int64 -> unit -> header
val vlan : vid:int64 -> ?ethertype:int64 -> unit -> header

val ipv4 :
  src:int64 -> dst:int64 -> ?proto:int64 -> ?ttl:int64 -> ?ecn:int64 ->
  ?dscp:int64 -> unit -> header

val tcp :
  sport:int64 -> dport:int64 -> ?seqno:int64 -> ?ackno:int64 ->
  ?flags:int64 -> unit -> header

val udp : sport:int64 -> dport:int64 -> unit -> header

val tcp_flag_syn : int64
val tcp_flag_ack : int64
val tcp_flag_fin : int64

(** Canonical (src, dst, proto, sport, dport) tuple. *)
val five_tuple : t -> int64 * int64 * int64 * int64 * int64

(** Deterministic hash of the five-tuple (ECMP, flow tables):
    [abs (Hashtbl.hash (five_tuple t))], computed without allocating. *)
val flow_hash : t -> int

val pp : Format.formatter -> t -> unit
