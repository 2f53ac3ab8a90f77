(** Physical encodings of the logical key/value map (§3.1).

    Devices implement network state in drastically different ways — P4
    "extern" registers, PoF flow-state instruction sets, Mellanox
    stateful tables — and a program pinned to one encoding cannot
    migrate. All three live behind this interface, plus a logical
    snapshot format that is the migration representation.

    Behavioral differences preserved:
    - {b Registers}: hash-indexed fixed array; distinct keys may alias
      (collision overwrites); reads always defined.
    - {b Flow-state ISA}: explicit insertion; once full, writes to
      unknown keys are rejected (counted as overflow).
    - {b Stateful table}: data-plane auto-insert with LRU eviction when
      full (Spectrum-style flow caching).

    {b Key buffers.} A key is an [int64 array], and every operation
    treats the caller's array as read-only and borrowed: lookups hash
    and compare its contents, and an insert stores a copy. The compiled
    datapath can therefore pass one reused buffer per access site
    without allocating per packet. Registers keep their own copies of
    keys, which [entries] and [snapshot] hand out and which must not be
    mutated; the keyed stores keep key words inline and hand out fresh
    arrays. *)

type key = int64 array

(** Hash table keyed by key contents: [find] and [mem] only read the
    probe key ([find] raises [Not_found]); [add] stores a copy of a key
    that must be absent. *)
module Key_tbl : sig
  type 'a t

  (** [create n] sizes the table for [n] keys; it grows past that. *)
  val create : int -> 'a t
  val find : 'a t -> key -> 'a
  val mem : 'a t -> key -> bool
  val add : 'a t -> key -> 'a -> unit
end

type concrete = Registers | Flow_state | Stateful_table

val concrete_of_encoding : Ast.map_encoding -> concrete option
val concrete_to_string : concrete -> string

type snapshot = {
  snap_map : string;
  snap_entries : (key * int64) list; (* sorted, deterministic *)
}

type t

val create : name:string -> size:int -> concrete -> t

(** Instantiate a declared map; [default] resolves [Enc_auto]. *)
val of_decl : Ast.map_decl -> ?default:concrete -> unit -> t

val encoding : t -> concrete

(** Reads of absent keys return 0 (total semantics). *)
val get : t -> key -> int64

val mem : t -> key -> bool
val put : t -> key -> int64 -> unit

(** Add [delta]; returns the new value. *)
val incr : t -> key -> int64 -> int64

val del : t -> key -> unit

(** Resident entries: registers in slot order, flow state in entry
    order (insertion order until a deletion frees an entry for reuse),
    stateful tables least recently used first. *)
val entries : t -> (key * int64) list
val size : t -> int

(** Writes rejected by a full flow-state store. *)
val overflows : t -> int

(** LRU evictions performed by a stateful table. *)
val evictions : t -> int

(** Logical snapshot: the migration representation (deterministically
    ordered). *)
val snapshot : t -> snapshot

(** Rebuild from a snapshot, possibly under a different physical
    encoding — the conversion performed when a component migrates to a
    target with a different state implementation. *)
val restore : name:string -> size:int -> concrete -> snapshot -> t

val clear : t -> unit

(** Fold a snapshot in by summing values — used by the data-plane
    migration protocol for in-flight updates. *)
val merge_add : t -> snapshot -> unit

(** Bounded on-device tier of a virtualized match table (tiered match
    tables): a key-tuple → binding cache with LRU demotion. The cache
    is policy-free about what it stores — [Compile] memoizes full
    first-match lookup {e results}, so priority semantics cannot be
    violated by partial residency. Owns the tier telemetry
    (hits/misses/promotions/evictions/demotions); eviction = LRU victim
    demoted under capacity pressure, demotion additionally counts
    explicit invalidations and flushes. *)
module Tier : sig
  type 'a t

  (** [cap] is clamped to at least 1. *)
  val create : cap:int -> 'a t

  val capacity : 'a t -> int

  (** Resident binding count (≤ capacity). *)
  val resident : 'a t -> int

  val hits : 'a t -> int
  val misses : 'a t -> int
  val promotions : 'a t -> int
  val evictions : 'a t -> int
  val demotions : 'a t -> int

  (** Probe the device tier; a hit refreshes the binding's LRU rank.
      Bumps the hit/miss telemetry.
      @raise Not_found on a miss. *)
  val find : 'a t -> key -> 'a

  val mem : 'a t -> key -> bool

  (** Install (or refresh) a binding, demoting the LRU victim when the
      tier is full. Hits, promotions and evictions are O(1). *)
  val promote : 'a t -> key -> 'a -> unit

  (** Drop one binding (rule deletion / priority-update hygiene). *)
  val demote : 'a t -> key -> unit

  (** Drop every binding — generation change or residency replan —
      keeping cumulative telemetry; [cap] resizes the tier. *)
  val flush : ?cap:int -> 'a t -> unit

  (** Resident keys, least recently used first — the hot set carried
      by migration, so promoting them in order onto another tier
      replays this tier's recency. *)
  val keys : 'a t -> key list
end
