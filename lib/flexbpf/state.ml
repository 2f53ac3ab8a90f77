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
   element; [to_int] drops only the sign bit. Registers index by it:
   which keys alias is the behaviour they model. *)
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

(* -- Keyed index ---------------------------------------------------------- *)

(* Every keyed store — flow state, stateful table, device tier, the
   compiled exact-match rule index — sits on one open-addressing index.
   Entries are dense ids in [0, Array.length at), each a record of
   [stride] 64-bit words in one flat buffer: the key's length (-1 when
   the entry is free), [vw] value words, then the key. The int64 stores
   keep their value there unboxed ([vw] = 1), next to the key it
   belongs to; the others keep values in their own array at the same
   id ([vw] = 0). The slot array holds (hash, entry) int pairs: a
   power-of-two slot count kept at most half full, probed linearly,
   and a deletion shifts the rest of its run back instead of leaving a
   tombstone. Entry storage grows by doubling up to [limit], so a
   large, sparsely used store costs only what it holds. In-range ids
   and offsets are invariants, hence the unchecked accesses. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

type ix = {
  mutable slots : int array; (* slot i: hash at 2i, entry at 2i+1 (-1 empty) *)
  mutable mask : int; (* slot count - 1 *)
  mutable words : Bytes.t; (* entry e at byte 8 * e * stride *)
  vw : int; (* value words per entry, 0 or 1 *)
  mutable stride : int; (* 1 + vw + the longest key inserted so far *)
  mutable at : int array; (* live entry -> its slot; free entry -> next free *)
  mutable count : int;
  mutable free : int; (* first free entry, -1 when none *)
  mutable limit : int; (* bound on entries *)
  hint : int; (* entries expected: the first growth reserves them *)
}

(* Multiply-xorshift over the words, then a final avalanche: the slot
   is the hash's low bits, which a plain [h * 31 lxor w] fold leaves
   almost unmixed for small keys (count-min's (row, column) pairs). *)
let mix_mul = 0x2127599bf4325c37

let index_hash (k : key) =
  let h = ref (Array.length k) in
  for i = 0 to Array.length k - 1 do
    h := (!h lxor Int64.to_int (Array.unsafe_get k i)) * mix_mul
  done;
  let h = !h lxor (!h lsr 32) in
  let h = h * mix_mul in
  h lxor (h lsr 29)

let min_slots = 8

let ix_create ?(hint = 0) ~vw limit =
  let n = ref min_slots in
  while !n < 2 * hint do n := 2 * !n done;
  { slots = Array.make (2 * !n) (-1); mask = !n - 1; words = Bytes.empty; vw;
    stride = 1 + vw; at = [||]; count = 0; free = -1; limit; hint }

let ix_clear ix =
  ix.slots <- Array.make (2 * min_slots) (-1);
  ix.mask <- min_slots - 1;
  ix.words <- Bytes.empty;
  ix.stride <- 1 + ix.vw;
  ix.at <- [||];
  ix.count <- 0;
  ix.free <- -1

(* Byte offsets of entry [e]'s fields. *)
let len_at ix e = 8 * e * ix.stride
let val_at ix e = 8 * ((e * ix.stride) + 1)
let key_at ix e = 8 * ((e * ix.stride) + 1 + ix.vw)

let entry_len ix e = Int64.to_int (get64 ix.words (len_at ix e))

let rec words_match w off (k : key) j =
  j >= Array.length k
  || (Int64.equal (get64 w (off + (8 * j))) (Array.unsafe_get k j)
      && words_match w off k (j + 1))

let rec probe ix (k : key) h i =
  let s = ix.slots in
  let e = Array.unsafe_get s ((2 * i) + 1) in
  if e < 0 then -1
  else if
    Array.unsafe_get s (2 * i) = h
    && entry_len ix e = Array.length k
    && words_match ix.words (key_at ix e) k 0
  then e
  else probe ix k h ((i + 1) land ix.mask)

(* The entry holding [k], or -1. *)
let ix_find ix k =
  let h = index_hash k in
  probe ix k h (h land ix.mask)

let ix_key ix e =
  let off = key_at ix e in
  Array.init (entry_len ix e) (fun j -> get64 ix.words (off + (8 * j)))

let ix_val ix e = get64 ix.words (val_at ix e)
let ix_set_val ix e v = set64 ix.words (val_at ix e) v

let grow a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Grow an array of boxed values to at least [n] entries by appending
   it to itself. [Array.make] with a young fill value forces a minor
   collection once the array is too large for the minor heap;
   [Array.append] does not, and its new half only repeats values the
   array already holds. *)
let rec fit vals n v =
  if Array.length vals >= n then vals
  else if Array.length vals = 0 then fit [| v |] n v
  else fit (Array.append vals vals) n v

(* Re-lay every entry at [stride] words over [n] entries; new entries
   are free. *)
let ix_relayout ix ~stride n =
  let w = Bytes.make (8 * n * stride) '\000' in
  for e = 0 to n - 1 do
    let len = if e < Array.length ix.at then entry_len ix e else -1 in
    if len < 0 then set64 w (8 * e * stride) (-1L)
    else
      Bytes.blit ix.words (len_at ix e) w (8 * e * stride)
        (8 * (1 + ix.vw + len))
  done;
  ix.words <- w;
  ix.stride <- stride

(* Double the entry storage (at least to [hint], at most to [limit])
   and free the new ids in ascending order. *)
let ix_grow ix =
  let n = Array.length ix.at in
  let m = min ix.limit (max (max 8 ix.hint) (2 * n)) in
  ix_relayout ix ~stride:ix.stride m;
  ix.at <- grow ix.at m (-1);
  for e = m - 1 downto n do
    ix.at.(e) <- ix.free;
    ix.free <- e
  done

let rec empty_from s mask i =
  if s.((2 * i) + 1) < 0 then i else empty_from s mask ((i + 1) land mask)

let place ix h e =
  let i = empty_from ix.slots ix.mask (h land ix.mask) in
  ix.slots.(2 * i) <- h;
  ix.slots.((2 * i) + 1) <- e;
  ix.at.(e) <- i

let ix_rehash ix n =
  let old = ix.slots in
  ix.slots <- Array.make (2 * n) (-1);
  ix.mask <- n - 1;
  for i = 0 to (Array.length old / 2) - 1 do
    let e = old.((2 * i) + 1) in
    if e >= 0 then place ix old.(2 * i) e
  done

(* Store a copy of [k], which must be absent, under a fresh entry; the
   caller keeps [count < limit] and sets the value. *)
let ix_add ix (k : key) =
  let n = Array.length k in
  if 1 + ix.vw + n > ix.stride then
    ix_relayout ix ~stride:(1 + ix.vw + n) (Array.length ix.at);
  if ix.free < 0 then ix_grow ix;
  if 2 * (ix.count + 1) > ix.mask + 1 then ix_rehash ix (2 * (ix.mask + 1));
  let e = ix.free in
  ix.free <- ix.at.(e);
  set64 ix.words (len_at ix e) (Int64.of_int n);
  let off = key_at ix e in
  for j = 0 to n - 1 do
    set64 ix.words (off + (8 * j)) (Array.unsafe_get k j)
  done;
  place ix (index_hash k) e;
  ix.count <- ix.count + 1;
  e

(* Backward-shift deletion: walk the run after the hole and move back
   every entry whose probe path from its home slot crosses the hole. *)
let ix_remove ix e =
  let s = ix.slots and mask = ix.mask in
  let rec shift hole j =
    let f = s.((2 * j) + 1) in
    if f < 0 then s.((2 * hole) + 1) <- -1
    else if (j - s.(2 * j)) land mask >= (j - hole) land mask then begin
      s.(2 * hole) <- s.(2 * j);
      s.((2 * hole) + 1) <- f;
      ix.at.(f) <- hole;
      shift j ((j + 1) land mask)
    end
    else shift hole ((j + 1) land mask)
  in
  let i = ix.at.(e) in
  shift i ((i + 1) land mask);
  set64 ix.words (len_at ix e) (-1L);
  ix.at.(e) <- ix.free;
  ix.free <- e;
  ix.count <- ix.count - 1

(* The compiled exact-match rule index: the index with boxed values and
   no deletion. *)
module Key_tbl = struct
  type 'a t = { kt : ix; mutable kt_vals : 'a array }

  let create hint = { kt = ix_create ~hint ~vw:0 max_int; kt_vals = [||] }

  let find t k =
    let e = ix_find t.kt k in
    if e < 0 then raise Not_found else Array.unsafe_get t.kt_vals e

  let mem t k = ix_find t.kt k >= 0

  let add t k v =
    let e = ix_add t.kt k in
    t.kt_vals <- fit t.kt_vals (e + 1) v;
    t.kt_vals.(e) <- v
end

(* -- Bounded LRU over the index ------------------------------------------- *)

(* Recency is a doubly linked list over entry ids, both links of an
   entry side by side in one int array: most recent at [head], the
   eviction victim at [tail]. A hit is an O(1) unlink and relink that
   allocates nothing, and eviction reads the tail instead of folding
   the table. Shared by the stateful-table store and the device tier;
   the index's [limit] is the capacity. *)
type lru = {
  ix : ix;
  mutable links : int array;
    (* entry e: prev at 2e (towards [head]), next at 2e+1; -1 at the ends *)
  mutable head : int; (* -1 when empty *)
  mutable tail : int;
  mutable evictions : int; (* cumulative, kept across clears *)
}

let lru_create ~vw cap =
  { ix = ix_create ~vw cap; links = [||]; head = -1; tail = -1; evictions = 0 }

let lru_unlink l e =
  let p = l.links.(2 * e) and n = l.links.((2 * e) + 1) in
  if p >= 0 then l.links.((2 * p) + 1) <- n else l.head <- n;
  if n >= 0 then l.links.(2 * n) <- p else l.tail <- p

(* The hit path, specialised: an entry that is not the head has a
   predecessor, and the head exists. *)
let lru_touch l e =
  let h = l.head in
  if h <> e then begin
    let a = l.links in
    let p = Array.unsafe_get a (2 * e) and n = Array.unsafe_get a ((2 * e) + 1) in
    Array.unsafe_set a ((2 * p) + 1) n;
    if n >= 0 then Array.unsafe_set a (2 * n) p else l.tail <- p;
    Array.unsafe_set a (2 * e) (-1);
    Array.unsafe_set a ((2 * e) + 1) h;
    Array.unsafe_set a (2 * h) e;
    l.head <- e
  end

let lru_remove l key =
  let e = ix_find l.ix key in
  e >= 0
  && begin
    lru_unlink l e;
    ix_remove l.ix e;
    true
  end

(* Insert an absent key as most recent, evicting the tail when the
   store is full; returns its entry, whose value the caller sets. *)
let lru_insert l key =
  if l.ix.count >= l.ix.limit then begin
    let victim = l.tail in
    lru_unlink l victim;
    ix_remove l.ix victim;
    l.evictions <- l.evictions + 1
  end;
  let e = ix_add l.ix key in
  if 2 * e >= Array.length l.links then
    l.links <- grow l.links (2 * Array.length l.ix.at) (-1);
  l.links.(2 * e) <- -1;
  l.links.((2 * e) + 1) <- l.head;
  if l.head >= 0 then l.links.(2 * l.head) <- e else l.tail <- e;
  l.head <- e;
  e

let lru_clear ?cap l =
  ix_clear l.ix;
  Option.iter (fun c -> l.ix.limit <- c) cap;
  l.links <- [||];
  l.head <- -1;
  l.tail <- -1

(* [f e] for every resident entry, least recent first. *)
let lru_map l f =
  let rec go e acc =
    if e < 0 then acc else go l.links.((2 * e) + 1) (f e :: acc)
  in
  go l.head []

(* -- Stores ------------------------------------------------------------ *)

(* Registers keep each slot's key and value in two arrays, so a write
   that lands on the slot's resident key stores only the value; a
   different key (an alias overwrite) copies it in. [absent] marks an
   empty slot by identity, since [[||]] is itself a valid key. *)
let absent : key = Array.make 1 0L

type reg_store = { r_keys : key array; r_vals : int64 array }

type fs_store = { fs : ix; mutable overflow_count : int }

type store =
  | Reg of reg_store
  | Fs of fs_store
  | St of lru

type t = { name : string; store : store }

let slot n key = key_hash key mod n

let create ~name ~size (enc : concrete) =
  let size = max 1 size in
  let store =
    match enc with
    | Registers ->
      Reg { r_keys = Array.make size absent; r_vals = Array.make size 0L }
    | Flow_state -> Fs { fs = ix_create ~vw:1 size; overflow_count = 0 }
    | Stateful_table -> St (lru_create ~vw:1 size)
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

let fs_insert f key v =
  if f.fs.count < f.fs.limit then ix_set_val f.fs (ix_add f.fs key) v
  else f.overflow_count <- f.overflow_count + 1

let get t key =
  match t.store with
  | Reg r -> r.r_vals.(slot (Array.length r.r_vals) key)
  | Fs f ->
    let e = ix_find f.fs key in
    if e < 0 then 0L else ix_val f.fs e
  | St l ->
    let e = ix_find l.ix key in
    if e < 0 then 0L
    else begin
      lru_touch l e;
      ix_val l.ix e
    end

let mem t key =
  match t.store with
  | Reg r -> reg_holds r (slot (Array.length r.r_vals) key) key
  | Fs f -> ix_find f.fs key >= 0
  | St l -> ix_find l.ix key >= 0

let put t key v =
  match t.store with
  | Reg r -> reg_write r (slot (Array.length r.r_vals) key) key v
  | Fs f ->
    let e = ix_find f.fs key in
    if e >= 0 then ix_set_val f.fs e v else fs_insert f key v
  | St l ->
    let e = ix_find l.ix key in
    if e >= 0 then begin
      ix_set_val l.ix e v;
      lru_touch l e
    end
    else ix_set_val l.ix (lru_insert l key) v

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
    let e = ix_find f.fs key in
    if e >= 0 then begin
      let v = Int64.add (ix_val f.fs e) delta in
      ix_set_val f.fs e v;
      v
    end
    else begin
      fs_insert f key delta;
      delta
    end
  | St l ->
    let e = ix_find l.ix key in
    if e >= 0 then begin
      let v = Int64.add (ix_val l.ix e) delta in
      ix_set_val l.ix e v;
      lru_touch l e;
      v
    end
    else begin
      ix_set_val l.ix (lru_insert l key) delta;
      delta
    end

let del t key =
  match t.store with
  | Reg r ->
    let i = slot (Array.length r.r_vals) key in
    if reg_holds r i key then begin
      r.r_keys.(i) <- absent;
      r.r_vals.(i) <- 0L
    end
  | Fs f ->
    let e = ix_find f.fs key in
    if e >= 0 then ix_remove f.fs e
  | St l -> ignore (lru_remove l key)

(* Registers in slot order, flow state in entry order (insertion order
   until a deletion frees an entry for reuse), stateful tables least
   recently used first. *)
let entries t =
  match t.store with
  | Reg r ->
    let acc = ref [] in
    for i = Array.length r.r_keys - 1 downto 0 do
      if r.r_keys.(i) != absent then acc := (r.r_keys.(i), r.r_vals.(i)) :: !acc
    done;
    !acc
  | Fs f ->
    let acc = ref [] in
    for e = Array.length f.fs.at - 1 downto 0 do
      if entry_len f.fs e >= 0 then acc := (ix_key f.fs e, ix_val f.fs e) :: !acc
    done;
    !acc
  | St l -> lru_map l (fun e -> (ix_key l.ix e, ix_val l.ix e))

let size t =
  match t.store with
  | Reg _ -> List.length (entries t)
  | Fs f -> f.fs.count
  | St l -> l.ix.count

let overflows t =
  match t.store with Fs f -> f.overflow_count | _ -> 0

let evictions t =
  match t.store with St l -> l.evictions | _ -> 0

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
  | Fs f -> ix_clear f.fs
  | St l -> lru_clear l

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
    selection through the same recency list as the stateful-table
    store, and the tier telemetry
    (hits/misses/promotions/evictions/demotions). *)
module Tier = struct
  type 'a t = {
    tc : lru;
    mutable tc_vals : 'a array; (* entry -> binding *)
    mutable tc_hits : int;
    mutable tc_misses : int;
    mutable tc_promotions : int;
    mutable tc_dropped : int; (* demoted by [demote] or [flush] *)
  }

  let create ~cap =
    { tc = lru_create ~vw:0 (max 1 cap); tc_vals = [||]; tc_hits = 0;
      tc_misses = 0; tc_promotions = 0; tc_dropped = 0 }

  let capacity t = t.tc.ix.limit
  let resident t = t.tc.ix.count
  let hits t = t.tc_hits
  let misses t = t.tc_misses
  let promotions t = t.tc_promotions
  let evictions t = t.tc.evictions
  let demotions t = t.tc.evictions + t.tc_dropped

  let find t key =
    let e = ix_find t.tc.ix key in
    if e < 0 then begin
      t.tc_misses <- t.tc_misses + 1;
      raise Not_found
    end;
    t.tc_hits <- t.tc_hits + 1;
    lru_touch t.tc e;
    Array.unsafe_get t.tc_vals e

  let mem t key = ix_find t.tc.ix key >= 0

  let promote t key v =
    let e = ix_find t.tc.ix key in
    if e >= 0 then begin
      lru_touch t.tc e;
      t.tc_vals.(e) <- v
    end
    else begin
      let e = lru_insert t.tc key in
      t.tc_vals <- fit t.tc_vals (e + 1) v;
      t.tc_vals.(e) <- v;
      t.tc_promotions <- t.tc_promotions + 1
    end

  let demote t key =
    if lru_remove t.tc key then t.tc_dropped <- t.tc_dropped + 1

  let flush ?cap t =
    t.tc_dropped <- t.tc_dropped + t.tc.ix.count;
    lru_clear ?cap:(Option.map (max 1) cap) t.tc;
    t.tc_vals <- [||]

  let keys t = lru_map t.tc (ix_key t.tc.ix)
end
