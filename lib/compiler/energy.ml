(** Energy-aware consolidation (§3.3).

    "By leveraging this fungibility layer, FlexNet is able to shuffle
    resources around and optimize for the current workload regarding
    network energy consumption." At low load, program elements are
    consolidated onto as few devices as possible and the emptied devices
    are powered down; when load rises they are spread back out. *)

open Flexbpf

type consolidation = {
  plan : Plan.t;
  where : (string * Targets.Device.t) list;
  powered_off : string list;
  watts_before : float;
  watts_after : float;
  snaps : (string * Targets.Resource.snapshot) list;
}

let static_watts dev =
  (Targets.Arch.profile_of_kind (Targets.Device.kind dev)).Targets.Arch.static_watts

(* static draw of [devices] when [on] tells which are powered (2 W
   sleep power otherwise) *)
let draw ~on devices =
  List.fold_left
    (fun acc d -> acc +. (if on d then static_watts d else 2.))
    0. devices

let total_watts devices = draw ~on:Targets.Device.powered_on devices

(** Plan the consolidation of [placement]'s elements onto the fewest
    devices, over snapshots: drain the least-utilized devices into the
    most-utilized ones, one [Plan.Move] per element that fits, and
    power off the devices left empty.

    Note: consolidation deliberately ignores the path-order constraint —
    it is an energy/performance trade the operator opts into at low load
    (the controller routes traffic through the consolidated slice). *)
let consolidate (placement : Placement.t) =
  let prog = placement.Placement.prog in
  let devices = placement.Placement.path in
  let snaps = ref (Placement.default_snaps devices) in
  let snap d = List.assoc (Targets.Device.id d) !snaps in
  let set d s =
    let id = Targets.Device.id d in
    snaps := (id, s) :: List.remove_assoc id !snaps
  in
  let names d =
    List.map
      (fun p -> p.Targets.Resource.pl_name)
      (snap d).Targets.Resource.placed
  in
  let occupied d = names d <> [] in
  let util d = Targets.Resource.occupancy (snap d) in
  let by_util_asc =
    List.filter occupied devices
    |> List.sort (fun a b -> compare (util a) (util b))
  in
  let moves = ref [] and where = ref placement.Placement.where in
  (* Move [name] from [src] to [dst] if it is one of [prog]'s elements
     and [dst] admits it *)
  let relocate src dst name =
    match Ast.find_element prog name with
    | None -> false
    | Some element ->
      let order =
        Option.value
          (List.find_index
             (fun e -> Ast.element_name e = name)
             prog.Ast.pipeline)
          ~default:0
      in
      (match Targets.Resource.admit (snap dst) ~ctx:prog ~order element with
       | Error _ -> false
       | Ok (_, dst_snap) ->
         set dst dst_snap;
         Option.iter (fun (_, s) -> set src s)
           (Targets.Resource.release (snap src) name);
         moves :=
           Plan.Move
             { from_device = Targets.Device.id src;
               to_device = Targets.Device.id dst; element; ctx = prog; order }
           :: !moves;
         where := (name, dst) :: List.filter (fun (n, _) -> n <> name) !where;
         true)
  in
  List.iter
    (fun src ->
      (* try to drain src into the other occupied devices, fullest first *)
      let targets =
        List.filter
          (fun d -> d != src && Targets.Device.powered_on d && occupied d)
          devices
        |> List.sort (fun a b -> compare (util b) (util a))
      in
      List.iter
        (fun name ->
          ignore (List.exists (fun dst -> relocate src dst name) targets))
        (names src))
    by_util_asc;
  let powered_off =
    List.filter_map
      (fun d ->
        if (not (occupied d)) && Targets.Device.powered_on d then
          Some (Targets.Device.id d)
        else None)
      devices
  in
  { plan = Plan.v "consolidate" (List.rev !moves);
    where = !where;
    powered_off;
    watts_before = total_watts devices;
    watts_after =
      draw devices ~on:(fun d ->
          Targets.Device.powered_on d
          && not (List.mem (Targets.Device.id d) powered_off));
    snaps = List.map (fun (id, s) -> (id, Targets.Resource.finalize s)) !snaps }

(** Power every device back on (load rose again). *)
let expand devices = List.iter (fun d -> Targets.Device.set_power d true) devices
