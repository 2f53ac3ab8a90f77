(** Physical encodings of the logical key/value map (§3.1).

    The paper's point: individual devices implement network state in
    drastically different ways — P4 "extern" registers, PoF flow-state
    instruction sets, Mellanox stateful tables — and a program pinned to
    one encoding cannot migrate. We model all three behind one
    interface, plus a logical snapshot format that is the migration
    representation ("program migration carries its state in this logical
    representation").

    Behavioral differences preserved:
    - Registers: hash-indexed fixed array; distinct keys may alias
      (collision overwrites), reads are always defined.
    - Flow-state ISA: explicit insertion; once full, writes to unknown
      keys are rejected (counted as overflow) — like PoF instruction
      state blocks.
    - Stateful table: keyed by flow key with data-plane auto-insert and
      LRU eviction when full — like Spectrum flow caching. *)

type key = int64 array

type concrete = Registers | Flow_state | Stateful_table

let concrete_of_encoding = function
  | Ast.Enc_registers -> Some Registers
  | Ast.Enc_flow_state -> Some Flow_state
  | Ast.Enc_stateful_table -> Some Stateful_table
  | Ast.Enc_auto -> None

let concrete_to_string = function
  | Registers -> "registers"
  | Flow_state -> "flow_state"
  | Stateful_table -> "stateful_table"

type snapshot = {
  snap_map : string;
  snap_entries : (key * int64) list;
}

(* Keys sit on the per-packet hot path (every map access and tiered
   lookup), and callers pass a reused per-site buffer: hashing and
   comparison read the buffer's contents, and only an insert copies
   it. Untagged [int] fold — [Int64] intermediates would box per
   element; [to_int] drops only the sign bit. *)
let key_hash (k : key) =
  let h = ref 17 in
  for i = 0 to Array.length k - 1 do
    h := (!h * 31) lxor Int64.to_int (Array.unsafe_get k i)
  done;
  !h land max_int

let rec equal_from (a : key) (b : key) i =
  i >= Array.length a
  || (Int64.equal (Array.unsafe_get a i) (Array.unsafe_get b i)
      && equal_from a b (i + 1))

let key_equal (a : key) (b : key) =
  Array.length a = Array.length b && equal_from a b 0

(* Lexicographic with a proper prefix first — the order snapshots have
   always been sorted in. *)
let rec compare_from (a : key) (b : key) i =
  if i = Array.length a then if i = Array.length b then 0 else -1
  else if i = Array.length b then 1
  else
    match Int64.compare a.(i) b.(i) with
    | 0 -> compare_from a b (i + 1)
    | c -> c

let key_compare a b = compare_from a b 0

module KH = Hashtbl.Make (struct
  type t = key
  let equal = key_equal
  let hash = key_hash
end)

(* [KH] with the copy-on-insert rule built in; [replace] is not offered
   because the stdlib's stores the caller's key over the resident one. *)
module Key_tbl = struct
  type 'a t = 'a KH.t

  let create = KH.create
  let find = KH.find
  let mem = KH.mem
  let add t k v = KH.add t (Array.copy k) v
end

(* -- Bounded LRU store ------------------------------------------------- *)

(* Resident keys live in slots [0, cap); recency is a doubly linked
   list over slot indices in two int arrays, most recent at [head],
   the eviction victim at [tail]. A hit is an O(1) unlink and relink
   that allocates nothing, and eviction reads the tail instead of
   folding the table. The slot arrays grow by doubling up to [l_cap],
   so a large, sparsely used store costs only what it holds. Shared by
   the stateful-table store and the device tier. *)
type 'a cell = { mutable v : 'a; slot : int }

type 'a lru = {
  l_tbl : 'a cell KH.t;
  mutable l_cap : int;
  mutable l_keys : key array; (* slot -> the table's copy of its key *)
  mutable l_prev : int array; (* towards [l_head]; -1 at the head *)
  mutable l_next : int array; (* towards [l_tail]; also links free slots *)
  mutable l_head : int; (* -1 when empty *)
  mutable l_tail : int;
  mutable l_free : int; (* first unused slot, -1 when none *)
  mutable l_evictions : int; (* cumulative, kept across clears *)
}

let lru_create cap =
  { l_tbl = KH.create cap; l_cap = cap; l_keys = [||]; l_prev = [||];
    l_next = [||]; l_head = -1; l_tail = -1; l_free = -1; l_evictions = 0 }

let lru_grow l =
  let n = Array.length l.l_prev in
  let m = min l.l_cap (max 8 (2 * n)) in
  let extend a fill =
    let b = Array.make m fill in
    Array.blit a 0 b 0 n;
    b
  in
  l.l_keys <- extend l.l_keys [||];
  l.l_prev <- extend l.l_prev (-1);
  l.l_next <- extend l.l_next (-1);
  for s = m - 1 downto n do
    l.l_next.(s) <- l.l_free;
    l.l_free <- s
  done

let lru_unlink l s =
  let p = l.l_prev.(s) and n = l.l_next.(s) in
  if p >= 0 then l.l_next.(p) <- n else l.l_head <- n;
  if n >= 0 then l.l_prev.(n) <- p else l.l_tail <- p

let lru_push_front l s =
  l.l_prev.(s) <- -1;
  l.l_next.(s) <- l.l_head;
  if l.l_head >= 0 then l.l_prev.(l.l_head) <- s else l.l_tail <- s;
  l.l_head <- s

(* The hit path, specialised: a slot that is not the head has a
   predecessor, and the head exists. Slots are in range by
   construction, hence the unchecked accesses. *)
let lru_touch l c =
  let s = c.slot and h = l.l_head in
  if h <> s then begin
    let prev = l.l_prev and next = l.l_next in
    let p = Array.unsafe_get prev s and n = Array.unsafe_get next s in
    Array.unsafe_set next p n;
    if n >= 0 then Array.unsafe_set prev n p else l.l_tail <- p;
    Array.unsafe_set prev s (-1);
    Array.unsafe_set next s h;
    Array.unsafe_set prev h s;
    l.l_head <- s
  end

let lru_release l s =
  lru_unlink l s;
  l.l_keys.(s) <- [||];
  l.l_next.(s) <- l.l_free;
  l.l_free <- s

let lru_remove l key =
  match KH.find l.l_tbl key with
  | c ->
    KH.remove l.l_tbl key;
    lru_release l c.slot;
    true
  | exception Not_found -> false

(* Insert an absent key as most recent, evicting the tail when all
   [l_cap] slots are taken. *)
let lru_insert l key v =
  if l.l_free < 0 && Array.length l.l_prev < l.l_cap then lru_grow l;
  if l.l_free < 0 then begin
    let s = l.l_tail in
    KH.remove l.l_tbl l.l_keys.(s);
    lru_release l s;
    l.l_evictions <- l.l_evictions + 1
  end;
  let s = l.l_free in
  l.l_free <- l.l_next.(s);
  let k = Array.copy key in
  l.l_keys.(s) <- k;
  lru_push_front l s;
  KH.add l.l_tbl k { v; slot = s }

let lru_clear ?cap l =
  KH.reset l.l_tbl;
  Option.iter (fun c -> l.l_cap <- c) cap;
  l.l_keys <- [||];
  l.l_prev <- [||];
  l.l_next <- [||];
  l.l_head <- -1;
  l.l_tail <- -1;
  l.l_free <- -1

(* -- Stores ------------------------------------------------------------ *)

(* Registers keep each slot's key and value in two arrays, so a write
   that lands on the slot's resident key stores only the value; a
   different key (an alias overwrite) copies it in. [absent] marks an
   empty slot by identity, since [[||]] is itself a valid key. *)
let absent : key = Array.make 1 0L

type reg_store = { r_keys : key array; r_vals : int64 array }

type fs_store = {
  fs_tbl : int64 ref KH.t;
  fs_cap : int;
  mutable overflow_count : int;
}

type store =
  | Reg of reg_store
  | Fs of fs_store
  | St of int64 lru

type t = { name : string; store : store }

let slot n key = key_hash key mod n

let create ~name ~size (enc : concrete) =
  let size = max 1 size in
  let store =
    match enc with
    | Registers ->
      Reg { r_keys = Array.make size absent; r_vals = Array.make size 0L }
    | Flow_state ->
      Fs { fs_tbl = KH.create size; fs_cap = size; overflow_count = 0 }
    | Stateful_table -> St (lru_create size)
  in
  { name; store }

let of_decl (decl : Ast.map_decl) ?(default = Stateful_table) () =
  let enc =
    Option.value (concrete_of_encoding decl.encoding) ~default
  in
  create ~name:decl.map_name ~size:decl.map_size enc

let encoding t =
  match t.store with
  | Reg _ -> Registers
  | Fs _ -> Flow_state
  | St _ -> Stateful_table

let reg_holds r i key = r.r_keys.(i) != absent && key_equal r.r_keys.(i) key

let reg_write r i key v =
  if not (reg_holds r i key) then r.r_keys.(i) <- Array.copy key;
  r.r_vals.(i) <- v

(* Hot-path probes use [KH.find] + exception rather than [find_opt]:
   the option would allocate on every hit. *)
let get t key =
  match t.store with
  | Reg r -> r.r_vals.(slot (Array.length r.r_vals) key)
  | Fs f -> (match KH.find f.fs_tbl key with c -> !c | exception Not_found -> 0L)
  | St s ->
    (match KH.find s.l_tbl key with
     | c -> lru_touch s c; c.v
     | exception Not_found -> 0L)

let mem t key =
  match t.store with
  | Reg r -> reg_holds r (slot (Array.length r.r_vals) key) key
  | Fs f -> KH.mem f.fs_tbl key
  | St s -> KH.mem s.l_tbl key

let fs_insert f key v =
  if KH.length f.fs_tbl < f.fs_cap then Key_tbl.add f.fs_tbl key (ref v)
  else f.overflow_count <- f.overflow_count + 1

let put t key v =
  match t.store with
  | Reg r -> reg_write r (slot (Array.length r.r_vals) key) key v
  | Fs f ->
    (match KH.find f.fs_tbl key with
     | c -> c := v
     | exception Not_found -> fs_insert f key v)
  | St s ->
    (match KH.find s.l_tbl key with
     | c -> c.v <- v; lru_touch s c
     | exception Not_found -> lru_insert s key v)

(* Specialised per encoding: [incr] is the per-packet hot operation
   (sketches, counters), and the generic get-then-put pays the key hash
   twice on Registers and probes twice on the keyed stores. *)
let incr t key delta =
  match t.store with
  | Reg r ->
    let i = slot (Array.length r.r_vals) key in
    let v = Int64.add r.r_vals.(i) delta in
    reg_write r i key v;
    v
  | Fs f ->
    (match KH.find f.fs_tbl key with
     | c ->
       c := Int64.add !c delta;
       !c
     | exception Not_found -> fs_insert f key delta; delta)
  | St s ->
    (match KH.find s.l_tbl key with
     | c ->
       c.v <- Int64.add c.v delta;
       lru_touch s c;
       c.v
     | exception Not_found -> lru_insert s key delta; delta)

let del t key =
  match t.store with
  | Reg r ->
    let i = slot (Array.length r.r_vals) key in
    if reg_holds r i key then begin
      r.r_keys.(i) <- absent;
      r.r_vals.(i) <- 0L
    end
  | Fs f -> KH.remove f.fs_tbl key
  | St s -> ignore (lru_remove s key)

let entries t =
  match t.store with
  | Reg r ->
    let acc = ref [] in
    for i = Array.length r.r_keys - 1 downto 0 do
      if r.r_keys.(i) != absent then acc := (r.r_keys.(i), r.r_vals.(i)) :: !acc
    done;
    !acc
  | Fs f -> KH.fold (fun k c acc -> (k, !c) :: acc) f.fs_tbl []
  | St s -> KH.fold (fun k c acc -> (k, c.v) :: acc) s.l_tbl []

let size t = List.length (entries t)

let overflows t =
  match t.store with Fs f -> f.overflow_count | _ -> 0

let evictions t =
  match t.store with St s -> s.l_evictions | _ -> 0

(** Logical snapshot: the migration representation. Deterministically
    ordered so snapshots are comparable in tests. *)
let snapshot t =
  { snap_map = t.name;
    snap_entries =
      List.sort
        (fun (k1, v1) (k2, v2) ->
          match key_compare k1 k2 with 0 -> Int64.compare v1 v2 | c -> c)
        (entries t) }

(** Rebuild a map from a logical snapshot, possibly under a different
    physical encoding — this is exactly the conversion the compiler
    performs when a component migrates to a target with a different
    state implementation. *)
let restore ~name ~size enc snap =
  let t = create ~name ~size enc in
  List.iter (fun (k, v) -> put t k v) snap.snap_entries;
  t

let clear t =
  match t.store with
  | Reg r ->
    Array.fill r.r_keys 0 (Array.length r.r_keys) absent;
    Array.fill r.r_vals 0 (Array.length r.r_vals) 0L
  | Fs f -> KH.reset f.fs_tbl
  | St s -> lru_clear s

(** Merge a snapshot into an existing map by summing values — used by
    the data-plane migration protocol to fold in-flight updates into the
    destination copy. *)
let merge_add t snap =
  List.iter (fun (k, v) -> ignore (incr t k v)) snap.snap_entries

(* -- Device-tier cache (tiered match tables) -------------------------- *)

(** Bounded on-device tier of a virtualized match table: a key-tuple →
    binding cache with LRU demotion, the Synapse-style "hot rules
    on-device, the rest in a host tier" split. The cache is policy-free
    about what it stores ([Compile] memoizes full first-match lookup
    {e results}, so priority semantics cannot be violated by partial
    residency); this module only owns bounded residency, LRU victim
    selection through the same slot list as the stateful-table store,
    and the tier telemetry (hits/misses/promotions/evictions/demotions). *)
module Tier = struct
  type 'a t = {
    tc : 'a lru;
    mutable tc_hits : int;
    mutable tc_misses : int;
    mutable tc_promotions : int;
    mutable tc_dropped : int; (* demoted by [demote] or [flush] *)
  }

  let create ~cap =
    { tc = lru_create (max 1 cap); tc_hits = 0; tc_misses = 0;
      tc_promotions = 0; tc_dropped = 0 }

  let capacity t = t.tc.l_cap
  let resident t = KH.length t.tc.l_tbl
  let hits t = t.tc_hits
  let misses t = t.tc_misses
  let promotions t = t.tc_promotions
  let evictions t = t.tc.l_evictions
  let demotions t = t.tc.l_evictions + t.tc_dropped

  let find t key =
    match KH.find t.tc.l_tbl key with
    | c ->
      t.tc_hits <- t.tc_hits + 1;
      lru_touch t.tc c;
      c.v
    | exception Not_found ->
      t.tc_misses <- t.tc_misses + 1;
      raise Not_found

  let mem t key = KH.mem t.tc.l_tbl key

  let promote t key v =
    match KH.find t.tc.l_tbl key with
    | c ->
      lru_touch t.tc c;
      c.v <- v
    | exception Not_found ->
      lru_insert t.tc key v;
      t.tc_promotions <- t.tc_promotions + 1

  let demote t key =
    if lru_remove t.tc key then t.tc_dropped <- t.tc_dropped + 1

  let flush ?cap t =
    t.tc_dropped <- t.tc_dropped + KH.length t.tc.l_tbl;
    lru_clear ?cap:(Option.map (max 1) cap) t.tc

  let keys t = KH.fold (fun k _ acc -> k :: acc) t.tc.l_tbl []
end
