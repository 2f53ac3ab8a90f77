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

    {b Flat keys.} The datapath's keys are flat: [n] 64-bit words from
    word [k] of a [Bytes.t], which the compiled datapath takes as a word
    slice of its register file. Every per-packet operation — [read],
    [write], [add], [remove], [holds], [Key_tbl] and [Tier] lookups —
    probes such a key, reading its words with the unboxed primitives,
    and only an insert copies them. Map values travel through words of
    the same buffer, so no per-packet operation allocates. The host-side
    operations ([get], [put], [incr], [del], [mem]) take an [int64
    array] key, pack it, and run the same path. Keys handed out
    ([entries], [snapshot], [Tier.keys]) are fresh arrays. *)

(** A host-side key. *)
type key = int64 array

(** [pack k] is a buffer holding [k]'s words from word 0, and one spare
    word after them. *)
val pack : key -> Bytes.t

(** [key_of b k n] copies the flat key at words [k, k+n) of [b] out. *)
val key_of : Bytes.t -> int -> int -> key

(** Hash table keyed by key contents: [find b k n] and [mem] only read
    the flat key ([find] raises [Not_found]); [add] stores a copy of a
    key that must be absent. *)
module Key_tbl : sig
  type 'a t

  (** [create n] sizes the table for [n] keys; it grows past that. *)
  val create : int -> 'a t
  val find : 'a t -> Bytes.t -> int -> int -> 'a
  val mem : 'a t -> Bytes.t -> int -> int -> bool
  val add : 'a t -> Bytes.t -> int -> int -> 'a -> unit
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

(** {2 Per-packet access}

    The key is words [k, k+n) of [b]; a value is one word of [b]. *)

(** [read t b k n d] stores the key's value at word [d]; an absent key
    reads 0 (total semantics). *)
val read : t -> Bytes.t -> int -> int -> int -> unit

(** [write t b k n v] binds the key to the value at word [v]. *)
val write : t -> Bytes.t -> int -> int -> int -> unit

(** [add t b k n v] adds the value at word [v] to the key's. *)
val add : t -> Bytes.t -> int -> int -> int -> unit

val remove : t -> Bytes.t -> int -> int -> unit
val holds : t -> Bytes.t -> int -> int -> bool

(** {2 Host-side access} *)

(** Reads of absent keys return 0 (total semantics). *)
val get : t -> key -> int64

val mem : t -> key -> bool
val put : t -> key -> int64 -> unit

(** Add [delta] to the key's value. *)
val incr : t -> key -> int64 -> unit

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
      The key is flat, as in [Key_tbl].
      @raise Not_found on a miss. *)
  val find : 'a t -> Bytes.t -> int -> int -> 'a

  val mem : 'a t -> Bytes.t -> int -> int -> bool

  (** Install (or refresh) a binding, demoting the LRU victim when the
      tier is full. Hits, promotions and evictions are O(1). *)
  val promote : 'a t -> Bytes.t -> int -> int -> 'a -> unit

  (** Drop one binding (rule deletion / priority-update hygiene). *)
  val demote : 'a t -> Bytes.t -> int -> int -> unit

  (** Drop every binding — generation change or residency replan —
      keeping cumulative telemetry; [cap] resizes the tier. *)
  val flush : ?cap:int -> 'a t -> unit

  (** Resident keys, least recently used first — the hot set carried
      by migration, so promoting them in order onto another tier
      replays this tier's recency. *)
  val keys : 'a t -> key list
end
