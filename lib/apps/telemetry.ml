(** In-band telemetry utilities: per-hop latency stamps and flow byte
    counters. These are the "in-network monitoring, execution tracking
    and diagnosis primitives" (§3.4) that are injected for maintenance
    and removed afterwards. *)

open Flexbpf.Builder

let flow_bytes_map = map_decl ~key_arity:2 ~size:8192 "flow_bytes"

(** Count packets per (src,dst) pair. *)
let flow_counter =
  block "flow_counter"
    [ map_incr "flow_bytes" [ field "ipv4" "src"; field "ipv4" "dst" ] ]

(** Stamp the hop count and the ingress timestamp into metadata: a
    minimal INT that the destination host (or a test) can read back. *)
let path_stamp =
  block "path_stamp"
    [ set_meta "hops" (meta "hops" +: const 1);
      set_meta "last_hop_us" now ]

let program ?(owner = "infra") () =
  program ~owner "telemetry" ~maps:[ flow_bytes_map ]
    [ flow_counter; path_stamp ]

let flow_count dev ~src ~dst =
  match Targets.Device.map_state dev "flow_bytes" with
  | Some st -> Flexbpf.State.get st [| src; dst |]
  | None -> 0L
