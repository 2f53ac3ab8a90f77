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
  meta : (string, int64 ref) Hashtbl.t;
    (* ref cells for the same reason as header fields: repeated writes
       to one key mutate in place instead of re-bucketing, and the fast
       path may cache a key's cell per table identity *)
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

let create ?(size = 1000) ?(born = 0.) headers =
  { uid = 1 + Atomic.fetch_and_add counter 1; headers; meta = Hashtbl.create 8;
    size; born; epoch = 0; shape_cache = None }

let reset_uid_counter () = Atomic.set counter 0

let header t name = List.find_opt (fun h -> h.hname = name) t.headers

let has_header t name = Option.is_some (header t name)

let field t hname fname =
  match header t hname with
  | None -> None
  | Some h ->
    (match List.assoc_opt fname h.fields with
     | Some c -> Some !c
     | None -> None)

let field_exn t hname fname =
  match field t hname fname with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Packet.field_exn: no %s.%s" hname fname)

(* Writes mutate the binding's cell: no list rebuild, no allocation on
   the per-packet hot path. *)
let set_header_field ~hname h fname v =
  let rec update = function
    | [] ->
      invalid_arg
        (Printf.sprintf "Packet.set_field: no field %s.%s" hname fname)
    | (k, c) :: tl -> if String.equal k fname then c := v else update tl
  in
  update h.fields

let set_field t hname fname v =
  match header t hname with
  | None -> invalid_arg (Printf.sprintf "Packet.set_field: no header %s" hname)
  | Some h -> set_header_field ~hname h fname v

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
  | None -> Hashtbl.add t.meta key (ref v)

(** The cell bound to [key], created (holding 0) if absent — for code
    that writes the same key repeatedly and wants to cache the cell.
    [find], not [find_opt]: the key is usually present, and an option
    would allocate on every call. *)
let meta_cell t key =
  match Hashtbl.find t.meta key with
  | c -> c
  | exception Not_found ->
    let c = ref 0L in
    Hashtbl.add t.meta key c;
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

let tcp ~sport ~dport ?(seqno = 0L) ?(ackno = 0L) ?(flags = 0L) () =
  { hname = "tcp";
    fields =
      [ ("sport", ref sport); ("dport", ref dport); ("seq", ref seqno);
        ("ack", ref ackno); ("flags", ref flags) ] }

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

let flow_hash t =
  let a, b, c, d, e = five_tuple t in
  let h = Hashtbl.hash (a, b, c, d, e) in
  abs h

let pp ppf t =
  let pp_header ppf h =
    Fmt.pf ppf "%s{%a}" h.hname
      Fmt.(list ~sep:(any ",") (pair ~sep:(any "=") string (using ( ! ) int64)))
      h.fields
  in
  Fmt.pf ppf "#%d[%a]" t.uid Fmt.(list ~sep:(any "/") pp_header) t.headers
