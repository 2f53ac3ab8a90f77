(** DDoS scrubber: a blocklist table populated by the controller from
    heavy-hitter / SYN-alarm digests, plus an aggregate rate meter.
    Designed to be injected at attack ingress points and removed after
    the attack — it has no persistent footprint (§3.4 "utility
    functions ... injected in real time ... removed soon after"). *)

open Flexbpf.Builder

let scrub_table ?(name = "scrub_blocklist") ?(size = 4096) () =
  table name
    ~keys:[ exact (field "ipv4" "src") ]
    ~actions:
      [ action "scrub" [ map_incr "scrubbed" [ const 0 ]; drop ];
        action "pass" [ Flexbpf.Ast.Nop ] ]
    ~default:("pass", []) ~size ()

let scrubbed_map = map_decl ~key_arity:1 ~size:4 "scrubbed"

let program ?(owner = "infra") () =
  program ~owner "scrubber" ~maps:[ scrubbed_map ] [ scrub_table () ]

(** Block a source address. *)
let block_rule ~src =
  rule ~priority:5 ~matches:[ exact_i src ] ~action:("scrub", []) ()

let scrubbed_count dev =
  match Targets.Device.map_state dev "scrubbed" with
  | Some st -> Flexbpf.State.get st [| 0L |]
  | None -> 0L
