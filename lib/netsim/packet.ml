(** Packets with structured headers.

    Headers are structured (name + field assoc) rather than raw bytes: the
    FlexBPF parser model operates on declared header types, and structured
    packets keep the whole stack inspectable in tests. Field values are
    [int64] regardless of declared width; widths are enforced by the
    FlexBPF type checker, not at the packet level. *)

(* Field values live in mutable cells: [set_field] writes in place, so
   the list spine never changes after construction — fast-path code may
   cache a field's cell for as long as the list identity is unchanged. *)
type header = { hname : string; mutable fields : (string * int64 ref) list }

type t = {
  uid : int;
  mutable headers : header list; (* outermost first *)
  mutable meta : (string, int64 ref) Hashtbl.t;
    (* ref cells for the same reason as header fields: repeated writes
       to one key mutate in place instead of re-bucketing, and the fast
       path may cache a key's cell per packet. The shared empty
       [no_meta] until the first write: most packets never get one. *)
  size : int; (* bytes on the wire *)
  born : float; (* injection time *)
  mutable epoch : int; (* program version that processed this packet *)
  mutable shape_cache : string option; (* memoised [shape]; reset on
                                          push/pop_header *)
}

(* Atomic: packets are created concurrently by per-shard domains
   (Netsim.Shard). Uids stay unique under parallelism; nothing
   deterministic may depend on global allocation order. *)
let counter = Atomic.make 0

(* Read-only: every write path replaces it with a table of its own. *)
let no_meta : (string, int64 ref) Hashtbl.t = Hashtbl.create 1

let v ~size ~born headers =
  { uid = 1 + Atomic.fetch_and_add counter 1; headers; meta = no_meta; size;
    born; epoch = 0; shape_cache = None }

let create ?(size = 1000) ?(born = 0.) headers = v ~size ~born headers

let dummy =
  { uid = 0; headers = []; meta = no_meta; size = 0; born = 0.; epoch = 0;
    shape_cache = None }

let own_meta t =
  if t.meta == no_meta then t.meta <- Hashtbl.create 8;
  t.meta

(* Header and field lookups are top-level recursions that return a
   sentinel or a default: per-hop code reads through them without
   allocating an option or a closure. *)
let no_header = { hname = ""; fields = [] }

let rec find_header name = function
  | [] -> no_header
  | h :: tl -> if String.equal h.hname name then h else find_header name tl

let rec assoc_default fname d = function
  | [] -> d
  | (k, c) :: tl -> if String.equal k fname then !c else assoc_default fname d tl

let header t name =
  let h = find_header name t.headers in
  if h == no_header then None else Some h

let has_header t name = find_header name t.headers != no_header

let field t hname fname =
  match header t hname with
  | None -> None
  | Some h ->
    (match List.assoc_opt fname h.fields with
     | Some c -> Some !c
     | None -> None)

let field_default t hname fname d =
  assoc_default fname d (find_header hname t.headers).fields

let field_exn t hname fname =
  match field t hname fname with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Packet.field_exn: no %s.%s" hname fname)

(* Writes mutate the binding's cell: no list rebuild, no allocation on
   the per-packet hot path. *)
let rec set_in_fields hname fname v = function
  | [] ->
    invalid_arg (Printf.sprintf "Packet.set_field: no field %s.%s" hname fname)
  | (k, c) :: tl ->
    if String.equal k fname then c := v else set_in_fields hname fname v tl

let set_field t hname fname v =
  let h = find_header hname t.headers in
  if h == no_header then
    invalid_arg (Printf.sprintf "Packet.set_field: no header %s" hname)
  else set_in_fields hname fname v h.fields

let push_header t h =
  t.headers <- h :: t.headers;
  t.shape_cache <- None

let pop_header t name =
  t.headers <- List.filter (fun h -> h.hname <> name) t.headers;
  t.shape_cache <- None

(** The packet's header-name sequence as one interned string
    ("ethernet/ipv4/tcp"). Parser acceptance depends only on this shape,
    so it serves as a compact memo key; computed once per packet. *)
let shape t =
  match t.shape_cache with
  | Some s -> s
  | None ->
    let s = String.concat "/" (List.map (fun h -> h.hname) t.headers) in
    t.shape_cache <- Some s;
    s

let meta t key =
  match Hashtbl.find_opt t.meta key with Some c -> Some !c | None -> None

(* per-packet hot path; [find_opt] rather than [find] + exception —
   absent keys are common (e.g. unset [in_port]) and a raise costs far
   more than the option cell *)
let meta_default t key d =
  match Hashtbl.find_opt t.meta key with Some c -> !c | None -> d

let set_meta t key v =
  match Hashtbl.find_opt t.meta key with
  | Some c -> c := v
  | None -> Hashtbl.add (own_meta t) key (ref v)

(** The cell bound to [key], created (holding 0) if absent — for code
    that writes the same key repeatedly and wants to cache the cell.
    [find], not [find_opt]: the key is usually present, and an option
    would allocate on every call. *)
let meta_cell t key =
  match Hashtbl.find t.meta key with
  | c -> c
  | exception Not_found ->
    let c = ref 0L in
    Hashtbl.add (own_meta t) key c;
    c

(* Standard header constructors. Addresses are plain integers: the
   simulator identifies hosts by small ints, which keeps routing tables
   and match rules readable in tests. *)

let ethernet ~src ~dst ?(ethertype = 0x0800L) () =
  { hname = "ethernet";
    fields = [ ("src", ref src); ("dst", ref dst); ("ethertype", ref ethertype) ] }

let vlan ~vid ?(ethertype = 0x0800L) () =
  { hname = "vlan"; fields = [ ("vid", ref vid); ("ethertype", ref ethertype) ] }

let ipv4 ~src ~dst ?(proto = 6L) ?(ttl = 64L) ?(ecn = 0L) ?(dscp = 0L) () =
  { hname = "ipv4";
    fields =
      [ ("src", ref src); ("dst", ref dst); ("proto", ref proto);
        ("ttl", ref ttl); ("ecn", ref ecn); ("dscp", ref dscp) ] }

let tcp_v ~sport ~dport ~seqno ~ackno ~flags =
  { hname = "tcp";
    fields =
      [ ("sport", ref sport); ("dport", ref dport); ("seq", ref seqno);
        ("ack", ref ackno); ("flags", ref flags) ] }

let tcp ~sport ~dport ?(seqno = 0L) ?(ackno = 0L) ?(flags = 0L) () =
  tcp_v ~sport ~dport ~seqno ~ackno ~flags

let udp ~sport ~dport () =
  { hname = "udp"; fields = [ ("sport", ref sport); ("dport", ref dport) ] }

let tcp_flag_syn = 0x02L
let tcp_flag_ack = 0x10L
let tcp_flag_fin = 0x01L

(** Canonical five-tuple used for flow-state tables and ECMP hashing. *)
let five_tuple t =
  let f h k = Option.value (field t h k) ~default:0L in
  let proto = f "ipv4" "proto" in
  let l4 = if has_header t "tcp" then "tcp" else "udp" in
  (f "ipv4" "src", f "ipv4" "dst", proto, f l4 "sport", f l4 "dport")

(* [Hashtbl.hash (five_tuple t)] without building the tuple: OCaml 5's
   [caml_hash] (MurmurHash3's 32-bit mixing) mixes the tuple's header
   word, then each [Int64]'s custom hash (high word xor low word), then
   applies the final mix and keeps 30 bits. ECMP paths, and every
   seeded digest that depends on them, rest on this being bit-identical;
   a qcheck property holds it to the tuple hash. *)
let u32 x = x land 0xFFFF_FFFF
let rotl32 x n = u32 ((x lsl n) lor (x lsr (32 - n)))

let hash_mix h d =
  let d = u32 (rotl32 (u32 (d * 0xcc9e2d51)) 15 * 0x1b873593) in
  u32 ((rotl32 (h lxor d) 13 * 5) + 0xe6546b64)

let hash_mix_int64 h v =
  hash_mix h (u32 (Int64.to_int (Int64.logxor v (Int64.shift_right_logical v 32))))

let hash_final h =
  let h = h lxor (h lsr 16) in
  let h = u32 (h * 0x85ebca6b) in
  let h = h lxor (h lsr 13) in
  let h = u32 (h * 0xc2b2ae35) in
  h lxor (h lsr 16)

(* the header word of a 5-field tag-0 block: size 5 above the 8 tag and
   2 colour bits *)
let tuple5_header = 5 lsl 10

let flow_hash t =
  let ip = (find_header "ipv4" t.headers).fields in
  let tcp = find_header "tcp" t.headers in
  let l4 =
    if tcp != no_header then tcp.fields else (find_header "udp" t.headers).fields
  in
  let h = hash_mix 0 tuple5_header in
  let h = hash_mix_int64 h (assoc_default "src" 0L ip) in
  let h = hash_mix_int64 h (assoc_default "dst" 0L ip) in
  let h = hash_mix_int64 h (assoc_default "proto" 0L ip) in
  let h = hash_mix_int64 h (assoc_default "sport" 0L l4) in
  let h = hash_mix_int64 h (assoc_default "dport" 0L l4) in
  hash_final h land 0x3FFF_FFFF

let pp ppf t =
  let pp_header ppf h =
    Fmt.pf ppf "%s{%a}" h.hname
      Fmt.(list ~sep:(any ",") (pair ~sep:(any "=") string (using ( ! ) int64)))
      h.fields
  in
  Fmt.pf ppf "#%d[%a]" t.uid Fmt.(list ~sep:(any "/") pp_header) t.headers
