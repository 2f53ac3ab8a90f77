(** Placement of lowered units onto a physical datapath — as a pure
    search over resource snapshots.

    The datapath is an ordered device path (host stack, NIC, switches,
    ... — the "physical slice" a fungible datapath runs on). Placement
    must respect pipeline order: unit i+1 may not land on a device
    earlier in the path than unit i, so packets traverse components in
    program order. Within that constraint we do first-fit with vertical
    affinity: tables try switching ASICs first, offloads only consider
    general-purpose targets.

    [plan] never touches a device: admission runs against
    [Targets.Resource] snapshots (a device installs through the same
    [Resource.admit] on its own snapshot) and the result is a cost-annotated
    [Plan.t] plus the predicted post-execution snapshots. Execution —
    and rollback on failure — is [Runtime.Reconfig]'s job. *)

open Flexbpf

type t = {
  path : Targets.Device.t list;
  (* element name -> device, for this program *)
  mutable where : (string * Targets.Device.t) list;
  prog : Ast.program;
}

type failure = {
  failed_unit : Lowering.unit_;
  attempts : (string * Targets.Resource.reject) list; (* device id -> why *)
}

let pp_failure ppf f =
  Fmt.pf ppf "cannot place %s: %a"
    (Ast.element_name f.failed_unit.Lowering.u_element)
    Fmt.(
      list ~sep:(any "; ")
        (pair ~sep:(any ": ") string
           (of_to_string Targets.Resource.reject_to_string)))
    f.attempts

(** Index of a device on the path; [None] if absent. *)
let device_position path dev =
  let rec go i = function
    | [] -> None
    | d :: rest -> if d == dev then Some i else go (i + 1) rest
  in
  go 0 path

let where t name = List.assoc_opt name t.where

let devices_used t =
  List.sort_uniq compare (List.map (fun (_, d) -> Targets.Device.id d) t.where)

(** Candidate devices for a unit, in preference order, from path
    position [min_pos]: admissible classes only; switch-preferred units
    see switches first. *)
let candidates ~path ~min_pos (u : Lowering.unit_) =
  let tail =
    List.filteri (fun i _ -> i >= min_pos) path
    |> List.filter (fun d ->
           Lowering.class_allows u.Lowering.u_class (Targets.Device.kind d))
  in
  match u.Lowering.u_class with
  | Lowering.Switch_preferred ->
    let switches, others =
      List.partition
        (fun d -> Targets.Arch.is_switch (Targets.Device.kind d))
        tail
    in
    switches @ others
  | _ -> tail

(* -- Pure planning ----------------------------------------------------- *)

(** A successful pure placement: where every element goes, the plan
    that realizes it, its cost, and the predicted snapshots. *)
type planned = {
  pln_where : (string * string) list; (* element name -> device id *)
  pln_plan : Plan.t;
  pln_cost : Plan.cost;
  pln_snaps : (string * Targets.Resource.snapshot) list;
      (* predicted (finalized) snapshot of every path device *)
}

let default_snaps path =
  List.map (fun d -> (Targets.Device.id d, Targets.Device.snapshot d)) path

let snapshot_deltas ~before ~after plan =
  let touched =
    List.sort_uniq compare (List.map Plan.op_device plan.Plan.ops)
  in
  List.filter_map
    (fun d ->
      match (List.assoc_opt d before, List.assoc_opt d after) with
      | Some b, Some a ->
        Some
          (d, Targets.Resource.sub (Targets.Resource.used a)
                (Targets.Resource.used b))
      | _ -> None)
    touched

(** Plan the placement of every unit of [prog] over [snaps] (resource
    snapshots keyed by device id; [path] supplies order and metadata
    only). Pure: no device is touched. On failure reports which unit
    failed and why each candidate rejected it — and, since nothing was
    installed, there is nothing to roll back. *)
let plan_on ?(plan_name = "deploy") ~snaps ~path (prog : Ast.program) =
  let units = Lowering.units_of_program prog in
  let before = snaps in
  let rec go snaps min_pos placed ops = function
    | [] -> Ok (snaps, List.rev placed, List.rev ops)
    | (u : Lowering.unit_) :: rest ->
      let tried = ref [] in
      let rec attempt = function
        | [] -> Error { failed_unit = u; attempts = List.rev !tried }
        | dev :: more ->
          let id = Targets.Device.id dev in
          (match List.assoc_opt id snaps with
           | None -> attempt more
           | Some snap ->
             (match
                Targets.Resource.admit snap ~ctx:u.Lowering.u_ctx
                  ~order:u.Lowering.u_index u.Lowering.u_element
              with
              | Ok (_slot, snap') ->
                let snaps = (id, snap') :: List.remove_assoc id snaps in
                let pos =
                  Option.value (device_position path dev) ~default:min_pos
                in
                go snaps (max min_pos pos)
                  ((Ast.element_name u.Lowering.u_element, id) :: placed)
                  (Plan.Install
                     { device = id; element = u.Lowering.u_element;
                       ctx = u.Lowering.u_ctx; order = u.Lowering.u_index }
                  :: ops)
                  rest
              | Error reject ->
                tried := (id, reject) :: !tried;
                attempt more))
      in
      attempt (candidates ~path ~min_pos u)
  in
  match go snaps 0 [] [] units with
  | Error f -> Error f
  | Ok (snaps, where, ops) ->
    let finalized =
      List.map (fun (id, s) -> (id, Targets.Resource.finalize s)) snaps
    in
    (* residency of tables this plan placed oversubscribed — admission
       treats an over-capacity table as policy, not rejection, and the
       plan carries the predicted device-tier size and miss rate *)
    let residency =
      List.concat_map
        (fun (_, s) ->
          List.filter_map
            (fun (p : Targets.Resource.placed) ->
              if List.mem_assoc p.Targets.Resource.pl_name where then
                p.Targets.Resource.pl_residency
              else None)
            s.Targets.Resource.placed)
        finalized
    in
    let plan = Plan.v ~residency plan_name ops in
    let times_of = Plan.times_of_devices path in
    let deltas = snapshot_deltas ~before ~after:finalized plan in
    Ok
      { pln_where = where; pln_plan = plan;
        pln_cost = Plan.cost_of ~times_of ~deltas plan;
        pln_snaps = finalized }

(** Plan against the devices' current state. *)
let plan ~path prog = plan_on ~snaps:(default_snaps path) ~path prog

(** Summed utilization over the path (for experiment reporting). *)
let mean_utilization path =
  match path with
  | [] -> 0.
  | _ ->
    List.fold_left (fun acc d -> acc +. Targets.Device.utilization d) 0. path
    /. float_of_int (List.length path)
