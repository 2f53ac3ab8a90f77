(** Datapath composition (§3.2).

    Tenant extension programs are layered onto the infrastructure
    datapath: every tenant element and map is namespaced under
    "tenant/", access control forbids touching foreign state, conflicts
    are detected, and logically-sharable code across tenants is
    reported as an optimization opportunity. *)

(** ["owner/name"], unless the name is already namespaced. *)
val namespaced : string -> string -> string

(** Namespace an extension program under its owner, rewriting every
    internal map reference. *)
val namespace : Ast.program -> Ast.program

type violation =
  | Touches_foreign_map of string * string (* element, map *)
  | Name_collision of string
  | Unauthorized_drop of string

val pp_violation : Format.formatter -> violation -> unit

(** All map names referenced by an element. *)
val element_maps : Ast.element -> string list

(** Check that a namespaced tenant program only references its own maps
    (or maps the infrastructure explicitly [exports]). *)
val check_access : ?exports:string list -> Ast.program -> violation list

(** Wrap a tenant element so it only applies to packets carrying the
    tenant's VLAN (meta.vlan_vid is stamped at device ingress). *)
val guard_element : vlan:int -> Ast.element -> Ast.element

type composition_error =
  | Access of violation list
  | Collision of string list
  | Ill_typed of Typecheck.error list

val pp_composition_error : Format.formatter -> composition_error -> unit

(** Lay a namespaced, access-checked, optionally VLAN-guarded extension
    atop the base program. *)
val compose :
  ?exports:string list -> ?vlan:int -> base:Ast.program -> Ast.program ->
  (Ast.program, composition_error) result

(** Remove every element, map, and parser rule owned by [owner] — the
    tenant-departure path. *)
val remove_owner : owner:string -> Ast.program -> Ast.program

(** Structurally identical elements installed by different owners,
    compared modulo namespaces and VLAN guards — "logically-sharable
    code that presents optimization opportunities". *)
val sharable_elements : Ast.program -> (string * string) list
