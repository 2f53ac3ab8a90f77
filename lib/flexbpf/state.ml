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
   lookup) as flat keys: [n] 64-bit words from word [k] of a [Bytes.t],
   read with the unboxed primitives, so hashing and comparison allocate
   nothing, and only an insert copies the words. The compiled datapath
   passes word slices of its register file; host-side callers pack an
   [int64 array] first ([pack]). *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] word b i = get64 b (8 * i)

let pack (k : key) =
  let b = Bytes.create (8 * (Array.length k + 1)) in
  Array.iteri (fun i v -> set64 b (8 * i) v) k;
  b

let key_of b k n : key = Array.init n (fun j -> word b (k + j))

(* Untagged [int] fold — [Int64] intermediates would box per element;
   [to_int] drops only the sign bit. Registers index by it: which keys
   alias is the behaviour they model. *)
let key_hash b k n =
  let h = ref 17 in
  for i = k to k + n - 1 do
    h := (!h * 31) lxor Int64.to_int (word b i)
  done;
  !h land max_int

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

(* [n] words at byte [off] of [w] equal the key's. *)
let rec words_match w off b k n j =
  j >= n
  || (Int64.equal (get64 w (off + (8 * j))) (word b (k + j))
      && words_match w off b k n (j + 1))

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

let index_hash b k n =
  let h = ref n in
  for i = k to k + n - 1 do
    h := (!h lxor Int64.to_int (word b i)) * mix_mul
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

let rec probe ix b k n h i =
  let s = ix.slots in
  let e = Array.unsafe_get s ((2 * i) + 1) in
  if e < 0 then -1
  else if
    Array.unsafe_get s (2 * i) = h
    && entry_len ix e = n
    && words_match ix.words (key_at ix e) b k n 0
  then e
  else probe ix b k n h ((i + 1) land ix.mask)

(* The entry holding the key, or -1. *)
let ix_find ix b k n =
  let h = index_hash b k n in
  probe ix b k n h (h land ix.mask)

let ix_key ix e = key_of ix.words (key_at ix e / 8) (entry_len ix e)

let[@inline] ix_val ix e = get64 ix.words (val_at ix e)
let[@inline] ix_set_val ix e v = set64 ix.words (val_at ix e) v

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

(* Store a copy of the key, which must be absent, under a fresh entry;
   the caller keeps [count < limit] and sets the value. *)
let ix_add ix b k n =
  if 1 + ix.vw + n > ix.stride then
    ix_relayout ix ~stride:(1 + ix.vw + n) (Array.length ix.at);
  if ix.free < 0 then ix_grow ix;
  if 2 * (ix.count + 1) > ix.mask + 1 then ix_rehash ix (2 * (ix.mask + 1));
  let e = ix.free in
  ix.free <- ix.at.(e);
  set64 ix.words (len_at ix e) (Int64.of_int n);
  Bytes.blit b (8 * k) ix.words (key_at ix e) (8 * n);
  place ix (index_hash b k n) e;
  ix.count <- ix.count + 1;
  e

(* Backward-shift deletion: walk the run after the hole and move back
   every entry whose probe path from its home slot crosses the hole.
   Top level, so a removal builds no closure. *)
let rec shift_back ix s mask hole j =
  let f = s.((2 * j) + 1) in
  if f < 0 then s.((2 * hole) + 1) <- -1
  else if (j - s.(2 * j)) land mask >= (j - hole) land mask then begin
    s.(2 * hole) <- s.(2 * j);
    s.((2 * hole) + 1) <- f;
    ix.at.(f) <- hole;
    shift_back ix s mask j ((j + 1) land mask)
  end
  else shift_back ix s mask hole ((j + 1) land mask)

let ix_remove ix e =
  let i = ix.at.(e) in
  shift_back ix ix.slots ix.mask i ((i + 1) land ix.mask);
  set64 ix.words (len_at ix e) (-1L);
  ix.at.(e) <- ix.free;
  ix.free <- e;
  ix.count <- ix.count - 1

(* The compiled exact-match rule index: the index with boxed values and
   no deletion. *)
module Key_tbl = struct
  type 'a t = { kt : ix; mutable kt_vals : 'a array }

  let create hint = { kt = ix_create ~hint ~vw:0 max_int; kt_vals = [||] }

  let find t b k n =
    let e = ix_find t.kt b k n in
    if e < 0 then raise Not_found else Array.unsafe_get t.kt_vals e

  let mem t b k n = ix_find t.kt b k n >= 0

  let add t b k n v =
    let e = ix_add t.kt b k n in
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

let lru_remove l b k n =
  let e = ix_find l.ix b k n in
  e >= 0
  && begin
    lru_unlink l e;
    ix_remove l.ix e;
    true
  end

(* Insert an absent key as most recent, evicting the tail when the
   store is full; returns its entry, whose value the caller sets. *)
let lru_insert l b k n =
  if l.ix.count >= l.ix.limit then begin
    let victim = l.tail in
    lru_unlink l victim;
    ix_remove l.ix victim;
    l.evictions <- l.evictions + 1
  end;
  let e = ix_add l.ix b k n in
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

(* Registers keep slot i's value unboxed at word i of [r_vals], and its
   key at word [i * r_stride] of [r_keys]: the key's length (-1 when
   the slot is empty), then its words. A write that lands on the slot's
   resident key stores only the value; a different key (an alias
   overwrite) copies its words in. The stride grows to fit the longest
   key written. *)
type reg_store = {
  r_size : int;
  r_vals : Bytes.t;
  mutable r_keys : Bytes.t;
  mutable r_stride : int;
}

type fs_store = { fs : ix; mutable overflow_count : int }

type store =
  | Reg of reg_store
  | Fs of fs_store
  | St of lru

type t = {
  name : string;
  store : store;
  mutable scratch : Bytes.t;
    (* the host-side API's packed key and value word, grown on demand;
       each call consumes it before returning *)
}

let create ~name ~size (enc : concrete) =
  let size = max 1 size in
  let store =
    match enc with
    | Registers ->
      Reg { r_size = size; r_vals = Bytes.make (8 * size) '\000';
            r_keys = Bytes.make (8 * size) '\255'; r_stride = 1 }
    | Flow_state -> Fs { fs = ix_create ~vw:1 size; overflow_count = 0 }
    | Stateful_table -> St (lru_create ~vw:1 size)
  in
  { name; store; scratch = Bytes.empty }

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

let slot r b k n = key_hash b k n mod r.r_size

let reg_len r i = Int64.to_int (word r.r_keys (i * r.r_stride))

let reg_holds r i b k n =
  reg_len r i = n && words_match r.r_keys (8 * ((i * r.r_stride) + 1)) b k n 0

(* Make slot [i] hold the key, re-laying the slots when it is longer
   than any key written so far. *)
let reg_claim r i b k n =
  if not (reg_holds r i b k n) then begin
    if 1 + n > r.r_stride then begin
      let stride = 1 + n in
      let w = Bytes.make (8 * r.r_size * stride) '\255' in
      for j = 0 to r.r_size - 1 do
        let len = reg_len r j in
        if len >= 0 then
          Bytes.blit r.r_keys (8 * j * r.r_stride) w (8 * j * stride)
            (8 * (1 + len))
      done;
      r.r_keys <- w;
      r.r_stride <- stride
    end;
    let at = 8 * i * r.r_stride in
    set64 r.r_keys at (Int64.of_int n);
    Bytes.blit b (8 * k) r.r_keys (at + 8) (8 * n)
  end

let reg_key r i = key_of r.r_keys ((i * r.r_stride) + 1) (reg_len r i)

(* Insert with the value at word [v] of [b]. *)
let fs_insert f b k n v =
  if f.fs.count < f.fs.limit then ix_set_val f.fs (ix_add f.fs b k n) (word b v)
  else f.overflow_count <- f.overflow_count + 1

(* -- The datapath's access path: key words [k, k+n) of [b], values
   through words of the same buffer, nothing boxed. -- *)

let read t b k n d =
  match t.store with
  | Reg r -> set64 b (8 * d) (get64 r.r_vals (8 * slot r b k n))
  | Fs f ->
    let e = ix_find f.fs b k n in
    if e < 0 then set64 b (8 * d) 0L else set64 b (8 * d) (ix_val f.fs e)
  | St l ->
    let e = ix_find l.ix b k n in
    if e < 0 then set64 b (8 * d) 0L
    else begin
      lru_touch l e;
      set64 b (8 * d) (ix_val l.ix e)
    end

let holds t b k n =
  match t.store with
  | Reg r -> reg_holds r (slot r b k n) b k n
  | Fs f -> ix_find f.fs b k n >= 0
  | St l -> ix_find l.ix b k n >= 0

let write t b k n v =
  match t.store with
  | Reg r ->
    let i = slot r b k n in
    reg_claim r i b k n;
    set64 r.r_vals (8 * i) (word b v)
  | Fs f ->
    let e = ix_find f.fs b k n in
    if e >= 0 then ix_set_val f.fs e (word b v) else fs_insert f b k n v
  | St l ->
    let e = ix_find l.ix b k n in
    if e >= 0 then begin
      ix_set_val l.ix e (word b v);
      lru_touch l e
    end
    else ix_set_val l.ix (lru_insert l b k n) (word b v)

(* Specialised per encoding: the per-packet hot operation (sketches,
   counters), which a read-then-write would pay with two key hashes on
   Registers and two probes on the keyed stores. *)
let add t b k n v =
  match t.store with
  | Reg r ->
    let i = slot r b k n in
    let x = Int64.add (get64 r.r_vals (8 * i)) (word b v) in
    reg_claim r i b k n;
    set64 r.r_vals (8 * i) x
  | Fs f ->
    let e = ix_find f.fs b k n in
    if e >= 0 then ix_set_val f.fs e (Int64.add (ix_val f.fs e) (word b v))
    else fs_insert f b k n v
  | St l ->
    let e = ix_find l.ix b k n in
    if e >= 0 then begin
      ix_set_val l.ix e (Int64.add (ix_val l.ix e) (word b v));
      lru_touch l e
    end
    else ix_set_val l.ix (lru_insert l b k n) (word b v)

let remove t b k n =
  match t.store with
  | Reg r ->
    let i = slot r b k n in
    if reg_holds r i b k n then begin
      set64 r.r_keys (8 * i * r.r_stride) (-1L);
      set64 r.r_vals (8 * i) 0L
    end
  | Fs f ->
    let e = ix_find f.fs b k n in
    if e >= 0 then ix_remove f.fs e
  | St l -> ignore (lru_remove l b k n)

(* -- Host-side access: the same path, with the key packed into the
   store's scratch buffer and one spare word after it for the value.
   The probe reads the words at once and an insert copies them, so the
   buffer is free again when the call returns. -- *)

let packed t (key : key) =
  let n = Array.length key in
  if Bytes.length t.scratch < 8 * (n + 1) then
    t.scratch <- Bytes.create (8 * (n + 1));
  let b = t.scratch in
  for i = 0 to n - 1 do
    set64 b (8 * i) (Array.unsafe_get key i)
  done;
  b

let get t (key : key) =
  let n = Array.length key and b = packed t key in
  read t b 0 n n;
  word b n

let mem t (key : key) = holds t (packed t key) 0 (Array.length key)

let put t (key : key) v =
  let n = Array.length key and b = packed t key in
  set64 b (8 * n) v;
  write t b 0 n n

let incr t (key : key) delta =
  let n = Array.length key and b = packed t key in
  set64 b (8 * n) delta;
  add t b 0 n n

let del t (key : key) = remove t (packed t key) 0 (Array.length key)

(* Registers in slot order, flow state in entry order (insertion order
   until a deletion frees an entry for reuse), stateful tables least
   recently used first. *)
let entries t =
  match t.store with
  | Reg r ->
    let acc = ref [] in
    for i = r.r_size - 1 downto 0 do
      if reg_len r i >= 0 then acc := (reg_key r i, word r.r_vals i) :: !acc
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
  | Reg r ->
    let c = ref 0 in
    for i = 0 to r.r_size - 1 do
      if reg_len r i >= 0 then c := !c + 1
    done;
    !c
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
    Bytes.fill r.r_vals 0 (Bytes.length r.r_vals) '\000';
    Bytes.fill r.r_keys 0 (Bytes.length r.r_keys) '\255'
  | Fs f -> ix_clear f.fs
  | St l -> lru_clear l

(** Merge a snapshot into an existing map by summing values — used by
    the data-plane migration protocol to fold in-flight updates into the
    destination copy. *)
let merge_add t snap = List.iter (fun (k, v) -> incr t k v) snap.snap_entries

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

  let find t b k n =
    let e = ix_find t.tc.ix b k n in
    if e < 0 then begin
      t.tc_misses <- t.tc_misses + 1;
      raise Not_found
    end;
    t.tc_hits <- t.tc_hits + 1;
    lru_touch t.tc e;
    Array.unsafe_get t.tc_vals e

  let mem t b k n = ix_find t.tc.ix b k n >= 0

  let promote t b k n v =
    let e = ix_find t.tc.ix b k n in
    if e >= 0 then begin
      lru_touch t.tc e;
      t.tc_vals.(e) <- v
    end
    else begin
      let e = lru_insert t.tc b k n in
      t.tc_vals <- fit t.tc_vals (e + 1) v;
      t.tc_vals.(e) <- v;
      t.tc_promotions <- t.tc_promotions + 1
    end

  let demote t b k n =
    if lru_remove t.tc b k n then t.tc_dropped <- t.tc_dropped + 1

  let flush ?cap t =
    t.tc_dropped <- t.tc_dropped + t.tc.ix.count;
    lru_clear ?cap:(Option.map (max 1) cap) t.tc;
    t.tc_vals <- [||]

  let keys t = lru_map t.tc (ix_key t.tc.ix)
end
