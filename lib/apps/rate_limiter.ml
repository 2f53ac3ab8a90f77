(** Token-bucket rate limiter in FlexBPF: per-source policing with
    tokens accumulated by virtual time. A typical operator utility that
    is injected where needed and removed afterwards.

    State per source: "tb_tokens" (milli-tokens) and "tb_last" (last
    refill, µs). On each packet: refill by elapsed-time x rate, cap at
    the burst size, then spend one token or drop. *)

open Flexbpf
open Flexbpf.Builder

let tokens_map = map_decl ~key_arity:1 ~size:4096 "tb_tokens"
let last_map = map_decl ~key_arity:1 ~size:4096 "tb_last"
let policed_map = map_decl ~key_arity:1 ~size:4 "tb_policed"

let maps = [ tokens_map; last_map; policed_map ]

(** [rate_pps] sustained packets/second, [burst] bucket depth in
    packets. Token arithmetic in milli-tokens to keep integer math. *)
let block ?(name = "rate_limit") ~rate_pps ~burst () =
  let src = field "ipv4" "src" in
  let tokens = map_get "tb_tokens" [ src ] in
  let last = map_get "tb_last" [ src ] in
  let cap = const (burst * 1000) in
  Flexbpf.Builder.block name
    [ (* snapshot elapsed time before touching tb_last *)
      set_meta "tb_elapsed" (now -: last);
      (* first sighting: full bucket, no refill *)
      when_ (last =: const 0)
        [ map_put "tb_tokens" [ src ] cap;
          set_meta "tb_elapsed" (const 0) ];
      map_put "tb_last" [ src ] now;
      (* refill: elapsed_us x rate / 1e6 packets = x rate / 1000 in
         milli-tokens; then cap at the burst depth *)
      map_put "tb_tokens" [ src ]
        (tokens +: (meta "tb_elapsed" *: const rate_pps /: const 1000));
      when_ (tokens >: cap) [ map_put "tb_tokens" [ src ] cap ];
      (* spend one token or police *)
      if_
        (tokens >=: const 1000)
        [ map_put "tb_tokens" [ src ] (tokens -: const 1000) ]
        [ map_incr "tb_policed" [ const 0 ]; drop ] ]

let program ?(owner = "infra") ~rate_pps ~burst () =
  Builder.program ~owner "rate_limiter" ~maps [ block ~rate_pps ~burst () ]

let policed_count dev =
  match Targets.Device.map_state dev "tb_policed" with
  | Some st -> State.get st [| 0L |]
  | None -> 0L
