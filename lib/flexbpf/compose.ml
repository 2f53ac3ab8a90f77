(** Datapath composition (§3.2).

    Tenant extension programs are layered onto the infrastructure
    datapath as patches. The arrival patch namespaces every tenant
    element under "tenant/", enforces access-control restrictions (a
    tenant program may not touch infra state or another tenant's
    state), and VLAN-guards every element; the departure patch inverts
    the arrival patch, removing everything it added. Logically-sharable
    code across tenants is reported as an optimization opportunity. *)

open Ast

let namespaced owner name =
  if String.contains name '/' then name else owner ^ "/" ^ name

let owner_of_name name =
  match String.index_opt name '/' with
  | Some i -> String.sub name 0 i
  | None -> "infra"

(* Rename every element/map of [prog] into the owner namespace, and
   rewrite references accordingly. *)
let rec rename_expr rename_map = function
  | Map_get (m, keys) -> Map_get (rename_map m, List.map (rename_expr rename_map) keys)
  | Bin (op, a, b) -> Bin (op, rename_expr rename_map a, rename_expr rename_map b)
  | Un (op, e) -> Un (op, rename_expr rename_map e)
  | Hash (alg, es) -> Hash (alg, List.map (rename_expr rename_map) es)
  | (Const _ | Field _ | Meta _ | Param _ | Time) as e -> e

let rec rename_stmt rename_map = function
  | Map_put (m, keys, v) ->
    Map_put (rename_map m, List.map (rename_expr rename_map) keys,
             rename_expr rename_map v)
  | Map_incr (m, keys, v) ->
    Map_incr (rename_map m, List.map (rename_expr rename_map) keys,
              rename_expr rename_map v)
  | Map_del (m, keys) ->
    Map_del (rename_map m, List.map (rename_expr rename_map) keys)
  | If (c, th, el) ->
    If (rename_expr rename_map c,
        List.map (rename_stmt rename_map) th,
        List.map (rename_stmt rename_map) el)
  | Loop (n, body) -> Loop (n, List.map (rename_stmt rename_map) body)
  | Set_field (h, f, e) -> Set_field (h, f, rename_expr rename_map e)
  | Set_meta (m, e) -> Set_meta (m, rename_expr rename_map e)
  | Forward e -> Forward (rename_expr rename_map e)
  | Call (svc, args) -> Call (svc, List.map (rename_expr rename_map) args)
  | (Nop | Drop | Punt _ | Push_header _ | Pop_header _) as s -> s

let rename_element rename_map owner = function
  | Table t ->
    Table
      { t with
        tbl_name = namespaced owner t.tbl_name;
        keys = List.map (fun (e, k) -> (rename_expr rename_map e, k)) t.keys;
        tbl_actions =
          List.map
            (fun a -> { a with body = List.map (rename_stmt rename_map) a.body })
            t.tbl_actions }
  | Block b ->
    Block
      { blk_name = namespaced owner b.blk_name;
        blk_body = List.map (rename_stmt rename_map) b.blk_body }

(** Namespace an extension program under its owner. *)
let namespace (ext : program) =
  let owner = ext.owner in
  let own_maps = List.map (fun (m : map_decl) -> m.map_name) ext.maps in
  let rename_map m = if List.mem m own_maps then namespaced owner m else m in
  { ext with
    maps =
      List.map
        (fun (m : map_decl) -> { m with map_name = namespaced owner m.map_name })
        ext.maps;
    parser =
      List.map (fun r -> { r with pr_name = namespaced owner r.pr_name }) ext.parser;
    pipeline = List.map (rename_element rename_map owner) ext.pipeline }

(* Access control ----------------------------------------------------- *)

type violation =
  | Touches_foreign_map of string * string (* element, map *)
  | Name_collision of string
  | Unauthorized_drop of string (* tenants may not drop infra traffic wholesale *)

let pp_violation ppf = function
  | Touches_foreign_map (el, m) ->
    Fmt.pf ppf "element %s accesses foreign map %s" el m
  | Name_collision n -> Fmt.pf ppf "name collision on %s" n
  | Unauthorized_drop el ->
    Fmt.pf ppf "element %s drops traffic outside its VLAN guard" el

let element_maps el =
  List.rev (fold_element_maps (fun acc m -> m :: acc) [] el)

(** Check that a namespaced tenant program only references its own maps. *)
let check_access (ext : program) =
  let owner = ext.owner in
  let violations =
    List.concat_map
      (fun el ->
        element_maps el
        |> List.filter_map (fun m ->
               if owner_of_name m = owner then None
               else Some (Touches_foreign_map (element_name el, m))))
      ext.pipeline
  in
  (* dedupe *)
  List.sort_uniq compare violations

(* VLAN isolation ------------------------------------------------------ *)

(** Wrap a tenant element so it only applies to packets carrying the
    tenant's VLAN, which is the paper's isolation mechanism. *)
let guard_element ~vlan el =
  match el with
  | Block b ->
    (* meta.vlan_vid is stamped at device ingress from the VLAN header
       (0 when untagged), so the guard is total. *)
    Block
      { b with
        blk_body =
          [ If
              ( Bin (Eq, Meta "vlan_vid", Const (Int64.of_int vlan)),
                b.blk_body,
                [] ) ] }
  | Table _ ->
    (* Tables are guarded by requiring the VLAN id as an extra key at
       rule-install time (enforced by the controller); structurally the
       table is unchanged. *)
    el

(* Arrival and departure ------------------------------------------------ *)

let arrival ~vlan ~base (ext : program) =
  let ext = namespace ext in
  match check_access ext with
  | _ :: _ as violations -> Error violations
  | [] ->
    let tenant = ext.owner in
    let covered_by_infra (r : parser_rule) =
      List.exists
        (fun b ->
          b.pr_headers = r.pr_headers && owner_of_name b.pr_name = "infra")
        base.parser
    in
    let ops =
      List.filter_map
        (fun h ->
          if List.exists (fun b -> b.hdr_name = h.hdr_name) base.headers then None
          else Some (Patch.Add_header h))
        ext.headers
      @ List.map (fun m -> Patch.Add_map m) ext.maps
      @ List.filter_map
          (fun r ->
            if covered_by_infra r then None else Some (Patch.Add_parser_rule r))
          ext.parser
      @ List.map
          (fun el -> Patch.Add_element (Patch.At_end, guard_element ~vlan el))
          ext.pipeline
    in
    Ok (Patch.v ~owner:tenant (tenant ^ "-arrival") ops)

let departure (arrival : Patch.t) =
  let owner = arrival.Patch.patch_owner in
  let inverse f = List.filter_map f arrival.Patch.ops in
  let ops =
    inverse (function
      | Patch.Add_element (_, el) ->
        Some (Patch.Remove_element (Patch.Sel_name (element_name el)))
      | _ -> None)
    @ inverse (function
        | Patch.Add_map m -> Some (Patch.Remove_map m.map_name)
        | _ -> None)
    @ inverse (function
        | Patch.Add_parser_rule r -> Some (Patch.Remove_parser_rule r.pr_name)
        | _ -> None)
  in
  Patch.v ~owner (owner ^ "-departure") ops

(** Structurally identical elements installed by different owners —
    "logically-sharable code that presents optimization opportunities". *)
let sharable_elements (prog : program) =
  (* compare modulo per-owner state names: strip the namespace from map
     references before the structural check *)
  let strip m =
    match String.index_opt m '/' with
    | Some i -> String.sub m (i + 1) (String.length m - i - 1)
    | None -> m
  in
  let unguard el =
    (* the VLAN guard is composition plumbing, not tenant logic: strip
       it so two tenants' identical programs compare equal *)
    match el with
    | Block
        { blk_body =
            [ If (Bin (Eq, Meta "vlan_vid", Const _), body, []) ];
          _ } as b ->
      (match b with Block bb -> Block { bb with blk_body = body } | t -> t)
    | el -> el
  in
  let normalize el =
    (* rename_element namespaces names; neutralize by renaming under a
       fixed owner then resetting the element name *)
    match rename_element strip "_" (unguard el) with
    | Table t -> Table { t with tbl_name = "_" }
    | Block b -> Block { b with blk_name = "_" }
  in
  let rec pairs = function
    | [] -> []
    | e :: rest ->
      List.filter_map
        (fun e' ->
          if
            owner_of_name (element_name e) <> owner_of_name (element_name e')
            && same_logic (normalize e) (normalize e')
          then Some (element_name e, element_name e')
          else None)
        rest
      @ pairs rest
  in
  pairs prog.pipeline
