(** Per-tenant ACL: an allow/deny match table over (src, dst), sized by
    the tenant's rule count. [size] sets the certified per-replica
    footprint directly — large rule sets are what make ACL tenants the
    unit of resource contention in the tenant economy (E18): a few
    hundred of them exhaust the match memory of whichever device the
    planner packs them onto, and the market's prices are what ration
    it. *)

open Flexbpf.Builder

let acl_table ?(name = "acl_rules") ?(size = 1024) () =
  table name
    ~keys:[ exact (field "ipv4" "src"); exact (field "ipv4" "dst") ]
    ~actions:
      [ action "deny" [ map_incr "acl_denied" [ const 0 ]; drop ];
        action "allow" [ Flexbpf.Ast.Nop ] ]
    ~default:("allow", []) ~size ()

let denied_map = map_decl ~key_arity:1 ~size:4 "acl_denied"

let program ?(owner = "tenant") ?(size = 1024) () =
  program ~owner "acl" ~maps:[ denied_map ] [ acl_table ~size () ]

(** Deny traffic from [src] to [dst]. *)
let deny_rule ~src ~dst =
  rule ~priority:5
    ~matches:[ exact_i src; exact_i dst ]
    ~action:("deny", []) ()

let denied_count dev =
  match Targets.Device.map_state dev "acl_denied" with
  | Some st -> Flexbpf.State.get st [| 0L |]
  | None -> 0L
