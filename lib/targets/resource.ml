(** Resource vectors and device resource snapshots.

    The vector type [t] describes both a capacity (what a stage, tile
    pool, or device offers) and a demand (what a program element needs).

    A [snapshot] is one device's resource state as an immutable value:
    its architecture shape (how resources are partitioned — the paper's
    fungibility taxonomy), current occupancy, placed elements, parser
    rules, and map reference counts. [admit] checks an element against a
    snapshot and returns the updated snapshot. A device holds its state
    as a snapshot and installs through [admit]; the compiler plans with
    the same functions over the same values and never touches hardware. *)

open Flexbpf

type t = {
  sram_bytes : int;
  tcam_bytes : int;
  action_slots : int;
  instructions : int; (* instruction store for blocks/actions *)
}

let zero = { sram_bytes = 0; tcam_bytes = 0; action_slots = 0; instructions = 0 }

let v ?(sram_bytes = 0) ?(tcam_bytes = 0) ?(action_slots = 0)
    ?(instructions = 0) () =
  { sram_bytes; tcam_bytes; action_slots; instructions }

let add a b =
  { sram_bytes = a.sram_bytes + b.sram_bytes;
    tcam_bytes = a.tcam_bytes + b.tcam_bytes;
    action_slots = a.action_slots + b.action_slots;
    instructions = a.instructions + b.instructions }

let sub a b =
  { sram_bytes = a.sram_bytes - b.sram_bytes;
    tcam_bytes = a.tcam_bytes - b.tcam_bytes;
    action_slots = a.action_slots - b.action_slots;
    instructions = a.instructions - b.instructions }

let scale k a =
  { sram_bytes = k * a.sram_bytes;
    tcam_bytes = k * a.tcam_bytes;
    action_slots = k * a.action_slots;
    instructions = k * a.instructions }

(** [fits demand capacity]: does the demand fit wholly? *)
let fits demand capacity =
  demand.sram_bytes <= capacity.sram_bytes
  && demand.tcam_bytes <= capacity.tcam_bytes
  && demand.action_slots <= capacity.action_slots
  && demand.instructions <= capacity.instructions

(** Fraction of [capacity] consumed by [used], on the most-loaded
    dimension; capacity dimensions of zero are ignored. *)
let utilization ~used ~capacity =
  let dim u c = if c = 0 then 0. else float_of_int u /. float_of_int c in
  List.fold_left Float.max 0.
    [ dim used.sram_bytes capacity.sram_bytes;
      dim used.tcam_bytes capacity.tcam_bytes;
      dim used.action_slots capacity.action_slots;
      dim used.instructions capacity.instructions ]

(** Demand of a program element, derived from the static analysis. *)
let of_footprint (f : Flexbpf.Analysis.footprint) =
  { sram_bytes = f.sram_bytes; tcam_bytes = f.tcam_bytes;
    action_slots = f.action_slots; instructions = f.instruction_count }

let pp ppf t =
  Fmt.pf ppf "sram=%dB tcam=%dB actions=%d instrs=%d" t.sram_bytes
    t.tcam_bytes t.action_slots t.instructions

(* -- Slots and rejections --------------------------------------------- *)

type tile_kind = Hash_tile | Index_tile | Tcam_tile

let tile_kind_to_string = function
  | Hash_tile -> "hash"
  | Index_tile -> "index"
  | Tcam_tile -> "tcam"

type slot =
  | In_stage of int
  | In_tiles of tile_kind * int (* tile kind, number of tiles *)
  | In_pool
  | In_pem

let slot_to_string = function
  | In_stage s -> Printf.sprintf "stage%d" s
  | In_tiles (k, n) -> Printf.sprintf "%d %s tiles" n (tile_kind_to_string k)
  | In_pool -> "pool"
  | In_pem -> "pem"

type reject =
  | No_capacity of string
  | Unsupported of string

let reject_to_string = function
  | No_capacity s -> "no capacity: " ^ s
  | Unsupported s -> "unsupported: " ^ s

(* -- Snapshots --------------------------------------------------------- *)

(** How the device partitions its resources — the fungibility taxonomy.
    Capacities are copied in so the snapshot is self-contained. *)
type shape =
  | Sh_staged of { stages : int; per_stage : t } (* RMT *)
  | Sh_staged_pem of { stages : int; per_stage : t; pem_slots : int }
      (* Elastic pipe: stages + programmable-elements matrix *)
  | Sh_tiled of { tiles : (tile_kind * int) list; tile_bytes : int; pool : t }
      (* typed tiles + shared action/instruction pool *)
  | Sh_pooled of { pool : t } (* dRMT / NIC / FPGA / host *)

(** Residency of an oversubscribed table: the device holds a bounded
    hot tier of [res_device_rules] while the full [res_logical_rules]
    stay authoritative on the host; misses page in on demand.
    [res_miss_rate] is the planner's prediction under the Zipfian
    reference workload (see [predicted_miss_rate]). *)
type residency = {
  res_table : string;
  res_logical_rules : int;
  res_device_rules : int;
  res_miss_rate : float;
}

let euler_gamma = 0.5772156649015329

(** Predicted steady-state miss rate of a [device]-rule hot tier over
    [logical] rules under a Zipf(1) reference popularity: an LRU cache
    of C entries captures ≈ H_C / H_N of the mass, with the harmonic
    number approximated as H_n ≈ ln n + γ. *)
let predicted_miss_rate ~logical ~device =
  if device >= logical || logical <= 0 then 0.
  else if device <= 0 then 1.
  else
    let h n = log (float_of_int n) +. euler_gamma in
    Float.max 0. (1. -. (h device /. h logical))

type placed = {
  pl_name : string;
  pl_order : int;
  pl_slot : slot;
  pl_demand : t;
  pl_element : Ast.element;
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
  pending_unref : string list;
      (* map names whose refcount drop is deferred to [finalize] *)
}

let snap_tiles_in_use snap kind =
  Option.value (List.assoc_opt kind snap.tiles_used) ~default:0

let snap_tile_capacity snap kind =
  match snap.shape with
  | Sh_tiled { tiles; _ } -> Option.value (List.assoc_opt kind tiles) ~default:0
  | _ -> 0

(* Name-keyed association lists compared with [String.equal]: the
   stdlib's polymorphic [List.assoc] pays a [compare] call per entry,
   and [map_refs] holds every resident tenant's maps. *)
let rec assoc_name name = function
  | [] -> None
  | (k, v) :: rest ->
    if String.equal k name then Some v else assoc_name name rest

let rec remove_name name = function
  | [] -> []
  | ((k, _) as x) :: rest ->
    if String.equal k name then rest else x :: remove_name name rest

let map_ref snap name = assoc_name name snap.map_refs

let find_placed snap name =
  List.find_opt (fun p -> p.pl_name = name) snap.placed

(* -- Demand ------------------------------------------------------------ *)

(** Resource demand of an element within context program [ctx],
    including the maps it references that are not yet present in the
    snapshot (the first referencing element pays for the map). *)
let element_demand snap ~(ctx : Ast.program) element =
  let fp = Analysis.element_footprint ctx element in
  let new_maps =
    Compose.element_maps element
    |> List.sort_uniq compare
    |> List.filter_map (fun name ->
           if map_ref snap name <> None then None
           else
             Option.map
               (fun decl -> (name, Analysis.map_bytes decl))
               (Ast.find_map ctx name))
  in
  let map_bytes = List.fold_left (fun acc (_, b) -> acc + b) 0 new_maps in
  let demand = add (of_footprint fp) (v ~sram_bytes:map_bytes ()) in
  (demand, new_maps)

(* -- Admission --------------------------------------------------------- *)

let stage_free ~per_stage snap s = sub per_stage snap.stage_used.(s)

(** Minimum admissible stage given pipeline-order dependencies: an
    element must sit no earlier than every element that precedes it in
    program order (RMT's defining constraint). *)
let min_stage snap ~order =
  List.fold_left
    (fun acc p ->
      match p.pl_slot with
      | In_stage s when p.pl_order < order -> max acc s
      | _ -> acc)
    0 snap.placed

let block_cycles element = Analysis.element_cost element

let first_fit_stage ~stages ~per_stage snap demand ~from =
  let rec try_stage s =
    if s >= stages then Error (No_capacity "no stage fits the element")
    else if fits demand (stage_free ~per_stage snap s) then Ok (In_stage s)
    else try_stage (s + 1)
  in
  try_stage from

let admit_tiles snap ~tiles:_ ~tile_bytes ~pool element demand =
  let pool_demand =
    v ~action_slots:demand.action_slots ~instructions:demand.instructions ()
  in
  let pool_free = sub pool snap.pool_used in
  let bytes = demand.sram_bytes + demand.tcam_bytes in
  let tiles_needed = max 1 ((bytes + tile_bytes - 1) / tile_bytes) in
  match element with
  | Ast.Block _ ->
    (* block state (maps) lives in index tiles; compute/action budget
       comes from the pool *)
    if not (fits pool_demand pool_free) then
      Error (No_capacity "action/instruction pool exhausted")
    else if bytes = 0 then Ok In_pool
    else begin
      let free_tiles =
        snap_tile_capacity snap Index_tile - snap_tiles_in_use snap Index_tile
      in
      if tiles_needed > free_tiles then
        Error
          (No_capacity
             (Printf.sprintf "needs %d index tiles, %d free" tiles_needed
                free_tiles))
      else Ok (In_tiles (Index_tile, tiles_needed))
    end
  | Ast.Table tbl ->
    let tile_kind =
      if Analysis.table_needs_tcam tbl then Tcam_tile else Hash_tile
    in
    let free_tiles =
      snap_tile_capacity snap tile_kind - snap_tiles_in_use snap tile_kind
    in
    if tiles_needed > free_tiles then
      Error
        (No_capacity
           (Printf.sprintf "needs %d %s tiles, %d free" tiles_needed
              (tile_kind_to_string tile_kind) free_tiles))
    else if not (fits pool_demand pool_free) then
      Error (No_capacity "action/instruction pool exhausted")
    else Ok (In_tiles (tile_kind, tiles_needed))

(** Pick a slot for the element, architecture-specifically. *)
let admit_slot snap ~order element demand =
  let is_block = match element with Ast.Block _ -> true | Ast.Table _ -> false in
  if is_block && block_cycles element > snap.max_block_cycles then
    Error
      (Unsupported
         (Printf.sprintf "block of %d cycles exceeds target limit %d"
            (block_cycles element) snap.max_block_cycles))
  else
    match snap.shape with
    | Sh_staged { stages; per_stage } ->
      first_fit_stage ~stages ~per_stage snap demand
        ~from:(min_stage snap ~order)
    | Sh_staged_pem { stages; per_stage; pem_slots } ->
      if is_block then begin
        if snap.pem_used < pem_slots then Ok In_pem
        else Error (No_capacity "PEM slots exhausted")
      end
      else
        first_fit_stage ~stages ~per_stage snap demand
          ~from:(min_stage snap ~order)
    | Sh_tiled { tiles; tile_bytes; pool } ->
      admit_tiles snap ~tiles ~tile_bytes ~pool element demand
    | Sh_pooled { pool } ->
      if fits demand (sub pool snap.pool_used) then Ok In_pool
      else Error (No_capacity "pool exhausted")

(* -- Occupancy bookkeeping (persistent) -------------------------------- *)

let charge snap slot demand =
  match slot with
  | In_stage s ->
    let stage_used = Array.copy snap.stage_used in
    stage_used.(s) <- add stage_used.(s) demand;
    { snap with stage_used }
  | In_pool -> { snap with pool_used = add snap.pool_used demand }
  | In_pem -> { snap with pem_used = snap.pem_used + 1 }
  | In_tiles (k, n) ->
    let tiles_used =
      (k, snap_tiles_in_use snap k + n)
      :: List.remove_assoc k snap.tiles_used
    in
    let pool_demand =
      v ~action_slots:demand.action_slots ~instructions:demand.instructions ()
    in
    { snap with tiles_used; pool_used = add snap.pool_used pool_demand }

let refund snap slot demand =
  match slot with
  | In_stage s ->
    let stage_used = Array.copy snap.stage_used in
    stage_used.(s) <- sub stage_used.(s) demand;
    { snap with stage_used }
  | In_pool -> { snap with pool_used = sub snap.pool_used demand }
  | In_pem -> { snap with pem_used = snap.pem_used - 1 }
  | In_tiles (k, n) ->
    let tiles_used =
      (k, snap_tiles_in_use snap k - n)
      :: List.remove_assoc k snap.tiles_used
    in
    let pool_demand =
      v ~action_slots:demand.action_slots ~instructions:demand.instructions ()
    in
    { snap with tiles_used; pool_used = sub snap.pool_used pool_demand }

(* -- Oversubscription --------------------------------------------------- *)

(** Clamp a table's demand to [device_rules] resident rules: only the
    match memory shrinks — maps, action slots, and instruction store
    cost the same whether a rule is resident or paged. *)
let clamp_demand ~needs_tcam ~rule_bytes ~logical demand device_rules =
  let cut = (logical - device_rules) * rule_bytes in
  if needs_tcam then { demand with tcam_bytes = demand.tcam_bytes - cut }
  else { demand with sram_bytes = demand.sram_bytes - cut }

(** A table whose full logical rule set does not slot is admitted
    oversubscribed: binary-search (fit is monotone in the resident rule
    count) the largest device tier whose clamped match memory slots,
    and record the residency so the device bounds its tier and the
    planner carries the predicted miss rate. [None] when not even one
    resident rule fits. *)
let admit_oversubscribed snap ~(ctx : Ast.program) ~order (tbl : Ast.table)
    element demand =
  let logical = tbl.Ast.tbl_size in
  if logical <= 1 then None
  else begin
    let rule_bytes = max 1 (Analysis.table_bytes ctx tbl / logical) in
    let needs_tcam = Analysis.table_needs_tcam tbl in
    let fits_with d =
      admit_slot snap ~order element
        (clamp_demand ~needs_tcam ~rule_bytes ~logical demand d)
    in
    match fits_with 1 with
    | Error _ -> None
    | Ok _ ->
      (* largest admissible resident count in [1, logical - 1] *)
      let rec search lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi + 1) / 2 in
          match fits_with mid with
          | Ok _ -> search mid hi
          | Error _ -> search lo (mid - 1)
      in
      let device = search 1 (logical - 1) in
      match fits_with device with
      | Error _ -> None
      | Ok slot ->
        let residency =
          { res_table = tbl.Ast.tbl_name; res_logical_rules = logical;
            res_device_rules = device;
            res_miss_rate = predicted_miss_rate ~logical ~device }
        in
        Some
          (slot,
           clamp_demand ~needs_tcam ~rule_bytes ~logical demand device,
           residency)
  end

(** Admit element [element] of [ctx] at pipeline position [order]:
    the full install-time check — block-cycle bound, demand including
    first-reference map bytes, architecture-specific slotting, parser
    capacity for the context's missing rules — and the snapshot as it
    would look after the install. A table whose match memory does not
    fit is not rejected outright: it is admitted oversubscribed with a
    clamped device tier and a [residency] record on its [placed] entry
    (misses demand-page from the host tier at run time). *)
let admit snap ~(ctx : Ast.program) ~order element =
  let name = Ast.element_name element in
  if find_placed snap name <> None then
    Error (Unsupported (Printf.sprintf "element %s already installed" name))
  else begin
    let demand, _new_maps = element_demand snap ~ctx element in
    let slotting =
      match admit_slot snap ~order element demand with
      | Ok slot -> Ok (slot, demand, None)
      | Error (No_capacity _ as err) ->
        (match element with
         | Ast.Table tbl ->
           (match admit_oversubscribed snap ~ctx ~order tbl element demand with
            | Some (slot, demand, res) -> Ok (slot, demand, Some res)
            | None -> Error err)
         | Ast.Block _ -> Error err)
      | Error err -> Error err
    in
    match slotting with
    | Error e -> Error e
    | Ok (slot, demand, residency) ->
      let missing_rules =
        List.filter
          (fun r ->
            not (List.exists (String.equal r.Ast.pr_name) snap.parser_rules))
          ctx.Ast.parser
      in
      if
        List.length snap.parser_rules + List.length missing_rules
        > snap.parser_capacity
      then Error (No_capacity "parser state capacity reached")
      else begin
        let snap = charge snap slot demand in
        let map_refs =
          Compose.element_maps element
          |> List.sort_uniq compare
          |> List.fold_left
               (fun refs mname ->
                 match assoc_name mname refs with
                 | Some n -> (mname, n + 1) :: remove_name mname refs
                 | None ->
                   if Ast.find_map ctx mname <> None then (mname, 1) :: refs
                   else refs)
               snap.map_refs
        in
        let entry =
          { pl_name = name; pl_order = order; pl_slot = slot;
            pl_demand = demand; pl_element = element;
            pl_residency = residency }
        in
        (* [placed] is sorted by order: insert before the first entry
           of the same or a later order, so an element sharing an order
           with placed ones goes first among them *)
        let[@tail_mod_cons] rec insert = function
          | p :: rest when p.pl_order < order -> p :: insert rest
          | l -> entry :: l
        in
        let placed = insert snap.placed in
        let parser_rules =
          snap.parser_rules
          @ List.map (fun r -> r.Ast.pr_name) missing_rules
        in
        Ok (slot, { snap with map_refs; placed; parser_rules })
      end
  end

(** Release a placed element by name: its demand is refunded
    immediately, but the map-reference drop is deferred to [finalize],
    so the maps outlive a two-version window in which every plan
    executes. [None] if the element is not placed. *)
let release snap name =
  match find_placed snap name with
  | None -> None
  | Some p ->
    let snap = refund snap p.pl_slot p.pl_demand in
    let placed = List.filter (fun q -> q != p) snap.placed in
    let unrefs = List.sort_uniq compare (Compose.element_maps p.pl_element) in
    Some
      (p.pl_slot,
       { snap with placed; pending_unref = snap.pending_unref @ unrefs })

(** Process deferred map unrefs (a device does so at thaw): refcount 1
    means the map disappears. *)
let finalize snap =
  let map_refs =
    List.fold_left
      (fun refs name ->
        match assoc_name name refs with
        | None -> refs
        | Some 1 -> remove_name name refs
        | Some n -> (name, n - 1) :: remove_name name refs)
      snap.map_refs snap.pending_unref
  in
  { snap with map_refs; pending_unref = [] }

(* -- Parser reconfiguration ------------------------------------------- *)

let add_parser_rule snap (rule : Ast.parser_rule) =
  if List.length snap.parser_rules >= snap.parser_capacity then
    Error (No_capacity "parser state capacity reached")
  else if List.mem rule.Ast.pr_name snap.parser_rules then
    Error (Unsupported ("duplicate parser rule " ^ rule.Ast.pr_name))
  else Ok { snap with parser_rules = snap.parser_rules @ [ rule.Ast.pr_name ] }

let remove_parser_rule snap name =
  if List.mem name snap.parser_rules then
    Some
      { snap with
        parser_rules = List.filter (fun r -> r <> name) snap.parser_rules }
  else None

(* -- Defragmentation --------------------------------------------------- *)

(** Re-pack staged elements first-fit in pipeline order so free stage
    space coalesces. Returns (elements moved, new snapshot). No-op on
    unstaged shapes. *)
let defragment snap =
  match snap.shape with
  | Sh_staged { stages; per_stage } | Sh_staged_pem { stages; per_stage; _ } ->
    let staged, rest =
      List.partition
        (fun p -> match p.pl_slot with In_stage _ -> true | _ -> false)
        snap.placed
    in
    let staged =
      List.stable_sort (fun a b -> compare a.pl_order b.pl_order) staged
    in
    let stage_used = Array.make (Array.length snap.stage_used) zero in
    let moved = ref 0 in
    let current_min = ref 0 in
    let staged' =
      List.map
        (fun p ->
          let rec try_stage s =
            if s >= stages then s (* cannot happen: it fit before *)
            else if fits p.pl_demand (sub per_stage stage_used.(s)) then s
            else try_stage (s + 1)
          in
          let s = try_stage !current_min in
          current_min := s;
          (match p.pl_slot with
           | In_stage old when old <> s -> incr moved
           | _ -> ());
          stage_used.(s) <- add stage_used.(s) p.pl_demand;
          { p with pl_slot = In_stage s })
        staged
    in
    let placed =
      List.stable_sort
        (fun a b -> compare a.pl_order b.pl_order)
        (staged' @ rest)
    in
    (!moved, { snap with stage_used; placed })
  | _ -> (0, snap)

(* -- Cost / reconciliation -------------------------------------------- *)

(** Most-loaded-dimension occupancy in [0, 1]: over all stages of a
    staged shape, and the fuller of that and the PEM slots of an
    elastic pipe; the fuller of the busiest tile kind and the shared
    pool of a tiled one; over the pool otherwise. *)
let occupancy snap =
  match snap.shape with
  | Sh_staged { stages; per_stage } ->
    utilization
      ~used:(Array.fold_left add zero snap.stage_used)
      ~capacity:(scale stages per_stage)
  | Sh_staged_pem { stages; per_stage; pem_slots } ->
    Float.max
      (utilization
         ~used:(Array.fold_left add zero snap.stage_used)
         ~capacity:(scale stages per_stage))
      (if pem_slots = 0 then 0.
       else float_of_int snap.pem_used /. float_of_int pem_slots)
  | Sh_tiled { tiles; pool; _ } ->
    let tile_util =
      List.fold_left
        (fun acc (k, cap) ->
          if cap = 0 then acc
          else
            Float.max acc
              (float_of_int (snap_tiles_in_use snap k) /. float_of_int cap))
        0. tiles
    in
    Float.max tile_util (utilization ~used:snap.pool_used ~capacity:pool)
  | Sh_pooled { pool } -> utilization ~used:snap.pool_used ~capacity:pool

(** Occupied resources, summed over the shape's partitions. Tiles are
    accounted as [tiles_used × tile_bytes] of SRAM — an approximation
    (a table occupying part of a tile still claims the whole tile). *)
let used snap =
  let base = Array.fold_left add snap.pool_used snap.stage_used in
  match snap.shape with
  | Sh_tiled { tile_bytes; _ } ->
    let tile_sram =
      List.fold_left (fun acc (_, n) -> acc + (n * tile_bytes)) 0
        snap.tiles_used
    in
    add base (v ~sram_bytes:tile_sram ())
  | _ -> base

(** Structural differences between a predicted and an observed snapshot
    — empty when the planner's model matched the device. Compares
    occupancy, placements (name/order/slot), parser rules, and map
    refcounts. *)
let equal_t a b =
  Int.equal a.sram_bytes b.sram_bytes
  && Int.equal a.tcam_bytes b.tcam_bytes
  && Int.equal a.action_slots b.action_slots
  && Int.equal a.instructions b.instructions

let equal_slot a b =
  match (a, b) with
  | In_stage x, In_stage y -> Int.equal x y
  | In_tiles (k, n), In_tiles (k', n') -> k = k' && Int.equal n n'
  | In_pool, In_pool | In_pem, In_pem -> true
  | _ -> false

(* Equal as sorted multisets: in-order equality (the usual case, as
   predicted and actual state are built by the same functions in the
   same order) decides without sorting. *)
let same_sorted eq l l' =
  List.equal eq l l' || List.sort compare l = List.sort compare l'

let diff predicted actual =
  let out = ref [] in
  let say fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let pv t = Fmt.str "%a" pp t in
  if Array.length predicted.stage_used <> Array.length actual.stage_used then
    say "stage count %d vs %d"
      (Array.length predicted.stage_used)
      (Array.length actual.stage_used)
  else
    Array.iteri
      (fun i u ->
        if not (equal_t u actual.stage_used.(i)) then
          say "stage %d: predicted %s, actual %s" i (pv u)
            (pv actual.stage_used.(i)))
      predicted.stage_used;
  if not (equal_t predicted.pool_used actual.pool_used) then
    say "pool: predicted %s, actual %s" (pv predicted.pool_used)
      (pv actual.pool_used);
  let nonzero l = List.filter (fun (_, n) -> n <> 0) l in
  if
    not
      (List.equal
         (fun (k, n) (k', n') -> k = k' && Int.equal n n')
         predicted.tiles_used actual.tiles_used
      || List.sort compare (nonzero predicted.tiles_used)
         = List.sort compare (nonzero actual.tiles_used))
  then say "tiles-in-use differ";
  if predicted.pem_used <> actual.pem_used then
    say "pem: predicted %d, actual %d" predicted.pem_used actual.pem_used;
  let same_sig p q =
    String.equal p.pl_name q.pl_name
    && Int.equal p.pl_order q.pl_order
    && equal_slot p.pl_slot q.pl_slot
  in
  if not (List.equal same_sig predicted.placed actual.placed) then begin
    let show l =
      String.concat ","
        (List.map
           (fun p ->
             Printf.sprintf "%s@%d:%s" p.pl_name p.pl_order
               (slot_to_string p.pl_slot))
           l)
    in
    say "placed: predicted [%s], actual [%s]" (show predicted.placed)
      (show actual.placed)
  end;
  if not (same_sorted String.equal predicted.parser_rules actual.parser_rules)
  then say "parser rules differ";
  if
    not
      (same_sorted
         (fun (m, n) (m', n') -> String.equal m m' && Int.equal n n')
         predicted.map_refs actual.map_refs)
  then say "map refcounts differ";
  List.rev !out
