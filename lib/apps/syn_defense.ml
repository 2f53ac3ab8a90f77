(** SYN-flood defense, summoned into the network at attack time and
    retired when the attack subsides (§1.1 "real-time security").

    Per-destination SYN counters over a sliding window; when a
    destination is under attack, SYNs from sources without established
    state are dropped (a SYN-cookie stand-in) and an alarm digest is
    punted so the controller can scale the defense. *)

open Flexbpf
open Flexbpf.Builder

let alarm_digest = "syn_alarm"

let syn_rate_map = map_decl ~key_arity:2 ~size:1024 "syn_rate"
let established_map = map_decl ~key_arity:2 ~size:65536 "established"
let dropped_map = map_decl ~key_arity:1 ~size:4 "syn_dropped"

let maps = [ syn_rate_map; established_map; dropped_map ]

let is_syn =
  band (field "tcp" "flags") (const 0x02) >: const 0

let is_ack =
  band (field "tcp" "flags") (const 0x10) >: const 0

(* window in microseconds: counters reset each window via epoch key *)
let window_us = 100_000

let window_key = Ast.Bin (Ast.Div, now, const window_us)

(** The defense block. [threshold] is SYNs per destination per 100ms
    window before mitigation engages. *)
let block ?(name = "syn_defense") ?(threshold = 500) () =
  let dst = field "ipv4" "dst" in
  let src = field "ipv4" "src" in
  let rate = map_get "syn_rate" [ dst; window_key ] in
  Flexbpf.Builder.block name
    [ (* established state is learned from ACKs of the destination side *)
      when_ (is_ack &&: not_ is_syn) [ map_put "established" [ src; dst ] (const 1) ];
      when_ is_syn
        [ map_incr "syn_rate" [ dst; window_key ];
          when_ (rate >: const threshold)
            [ punt alarm_digest;
              when_
                (not_ (map_get "established" [ src; dst ] >: const 0))
                [ map_incr "syn_dropped" [ const 0 ]; drop ] ] ] ]

let program ?(owner = "infra") ?threshold () =
  Builder.program ~owner "syn_defense" ~maps [ block ?threshold () ]

(** Defense elements are injectable piecemeal (e.g. one replica per
    ingress switch); each replica shares the logic but owns its state. *)
let replica ~index ?threshold () =
  let name = Printf.sprintf "syn_defense_%d" index in
  block ~name ?threshold ()

let dropped_count dev =
  match Targets.Device.map_state dev "syn_dropped" with
  | Some st -> Flexbpf.State.get st [| 0L |]
  | None -> 0L

(** Offered SYN load toward [dst]: the larger of the current and the
    previous window's counter, so reads at a window boundary don't see
    the just-opened (still empty) window. *)
let syn_rate_of dev ~dst ~now_us =
  match Targets.Device.map_state dev "syn_rate" with
  | Some st ->
    let w = Int64.div now_us (Int64.of_int window_us) in
    Int64.max
      (Flexbpf.State.get st [| dst; w |])
      (Flexbpf.State.get st [| dst; Int64.sub w 1L |])
  | None -> 0L
