(** Datapath composition (§3.2): the one tenant arrival/departure path.

    A tenant extension is layered onto the infrastructure datapath as a
    {!Patch.t}: {!arrival} namespaces every element, map and parser rule
    under "tenant/", rejects access to foreign state, and guards every
    element with the tenant's VLAN; {!departure} removes everything the
    tenant owns ("departures achieve opposite effects"). Admission
    ([Control.Tenants]) and the CLI's dry-run planner both run these
    patches, so what is planned is what is installed. [Patch.apply]
    typechecks the result and rejects duplicate names, so a tenant that
    arrives twice fails there. Logically-sharable code across tenants is
    reported as an optimization opportunity. *)

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

(** Check that a namespaced tenant program only references its own maps. *)
val check_access : Ast.program -> violation list

(** Wrap a tenant element so it only applies to packets carrying the
    tenant's VLAN (meta.vlan_vid is stamped at device ingress). *)
val guard_element : vlan:int -> Ast.element -> Ast.element

(** The arrival patch ["<tenant>-arrival"] of [ext] onto [base]: the
    namespaced extension, [Add_header] for headers [base] lacks,
    [Add_map] for every map, [Add_parser_rule] for every rule except
    those whose header stack an infrastructure (unowned) rule of [base]
    already parses, and [Add_element At_end] for every element, guarded
    by [vlan]. [Error] lists the access-control violations. *)
val arrival :
  vlan:int -> base:Ast.program -> Ast.program -> (Patch.t, violation list) result

(** The departure patch ["<owner>-departure"]: remove every element,
    map, and parser rule [owner] has in [prog]. *)
val departure : owner:string -> Ast.program -> Patch.t

(** Structurally identical elements installed by different owners,
    compared modulo namespaces and VLAN guards — "logically-sharable
    code that presents optimization opportunities". *)
val sharable_elements : Ast.program -> (string * string) list
