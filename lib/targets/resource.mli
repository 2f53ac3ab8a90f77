(** Resource vectors and device resource snapshots. The vector type
    [t] describes both a capacity (what a stage, tile pool, or device
    offers) and a demand (what a program element needs); a [snapshot]
    is one device's resource state as an immutable value that [admit]
    and friends update purely. A device holds its state as a snapshot
    and installs through [admit], so the compiler plans placements
    with the same functions without touching hardware. *)

type t = {
  sram_bytes : int;
  tcam_bytes : int;
  action_slots : int;
  instructions : int; (* instruction store for blocks/actions *)
}

val zero : t

val v :
  ?sram_bytes:int -> ?tcam_bytes:int -> ?action_slots:int ->
  ?instructions:int -> unit -> t

val add : t -> t -> t
val sub : t -> t -> t
val scale : int -> t -> t

(** [fits demand capacity]: does the demand fit wholly? *)
val fits : t -> t -> bool

(** Fraction of [capacity] consumed by [used] on the most-loaded
    dimension; zero-capacity dimensions are ignored. *)
val utilization : used:t -> capacity:t -> float

(** Demand of a program element, from the static analysis. *)
val of_footprint : Flexbpf.Analysis.footprint -> t

val pp : Format.formatter -> t -> unit

(** {2 Slots and rejections} *)

type tile_kind = Hash_tile | Index_tile | Tcam_tile

val tile_kind_to_string : tile_kind -> string

type slot =
  | In_stage of int
  | In_tiles of tile_kind * int (* tile kind, number of tiles *)
  | In_pool
  | In_pem

val slot_to_string : slot -> string

type reject =
  | No_capacity of string
  | Unsupported of string

val reject_to_string : reject -> string

(** {2 Snapshots} *)

(** How a device partitions its resources — the fungibility taxonomy
    (§3.3): per-stage (RMT), stages + PEM (elastic pipe), typed tiles
    over a shared pool (Trident4-class), or one fungible pool (dRMT,
    NIC, FPGA, host). *)
type shape =
  | Sh_staged of { stages : int; per_stage : t }
  | Sh_staged_pem of { stages : int; per_stage : t; pem_slots : int }
  | Sh_tiled of { tiles : (tile_kind * int) list; tile_bytes : int; pool : t }
  | Sh_pooled of { pool : t }

(** Residency of an oversubscribed table: the device holds a bounded
    hot tier of [res_device_rules] rules while all [res_logical_rules]
    stay authoritative on the host tier; device-tier misses demand-page
    at run time. *)
type residency = {
  res_table : string;
  res_logical_rules : int;
  res_device_rules : int;
  res_miss_rate : float; (* planner prediction, Zipf(1) reference *)
}

(** Predicted steady-state miss rate of a [device]-rule hot tier over
    [logical] rules under a Zipf(1) popularity law (harmonic-number
    approximation H_n ≈ ln n + γ). 0 when everything fits, 1 when
    nothing does. *)
val predicted_miss_rate : logical:int -> device:int -> float

type placed = {
  pl_name : string;
  pl_order : int;
  pl_slot : slot;
  pl_demand : t;
  pl_element : Flexbpf.Ast.element;
  pl_residency : residency option;
      (* present iff the element is a table admitted oversubscribed *)
}

type snapshot = {
  snap_device : string;
  shape : shape;
  max_block_cycles : int;
  parser_capacity : int;
  stage_used : t array; (* never mutated: copied on update *)
  pool_used : t;
  tiles_used : (tile_kind * int) list;
  pem_used : int;
  placed : placed list; (* sorted by pl_order *)
  parser_rules : string list; (* rule names, in device order *)
  map_refs : (string * int) list;
  pending_unref : string list; (* deferred refcount drops, see [finalize] *)
}

val find_placed : snapshot -> string -> placed option

(** The reference count of a map, [None] when no placed element
    references it. *)
val map_ref : snapshot -> string -> int option

(** Demand of an element within context [ctx], including map bytes for
    maps not yet referenced in the snapshot (first referencing element
    pays). Returns (demand, newly charged maps). *)
val element_demand :
  snapshot -> ctx:Flexbpf.Ast.program -> Flexbpf.Ast.element ->
  t * (string * int) list

(** Minimum admissible stage for pipeline position [order] on a staged
    shape (an element sits no earlier than its program-order
    predecessors). *)
val min_stage : snapshot -> order:int -> int

(** Full install-time admission of one element of [ctx] at pipeline
    position [order]: block-cycle bound, demand, architecture-specific
    slotting, parser capacity for missing context rules. On success
    returns the chosen slot and the post-install snapshot
    ([Targets.Device.install] runs this on the device's own snapshot).

    Oversubscription is admission policy, not rejection: a table whose
    full match memory does not slot is admitted with the largest
    device tier that does fit, its [placed] entry carrying the
    [residency] (clamped demand, predicted miss rate). *)
val admit :
  snapshot -> ctx:Flexbpf.Ast.program -> order:int -> Flexbpf.Ast.element ->
  (slot * snapshot, reject) result

(** Release a placed element: demand refunded now, map-reference drop
    deferred to [finalize] (maps outlive the two-version window in
    which every plan executes). [None] if absent. *)
val release : snapshot -> string -> (slot * snapshot) option

(** Process deferred map unrefs (a device does so at thaw). *)
val finalize : snapshot -> snapshot

val add_parser_rule :
  snapshot -> Flexbpf.Ast.parser_rule -> (snapshot, reject) result

(** [None] if the rule is not present. *)
val remove_parser_rule : snapshot -> string -> snapshot option

(** Re-pack staged elements first-fit in pipeline order so free stage
    space coalesces. Returns (moves, new snapshot); no-op on unstaged
    shapes. *)
val defragment : snapshot -> int * snapshot

(** Most-loaded-dimension occupancy in [0, 1] (per shape: all stages,
    and for an elastic pipe its PEM slots too; the busiest tile kind or
    the shared pool; the pool). *)
val occupancy : snapshot -> float

(** Occupied resources summed over the shape's partitions; tiles count
    as whole tiles of SRAM. *)
val used : snapshot -> t

(** Structural differences between a predicted and an observed
    snapshot — empty when the planner's model matched the device. *)
val diff : snapshot -> snapshot -> string list
