(** Incremental recompilation (§3.3) — as pure planning.

    Runtime changes are compiled "in a least-intrusive manner":
    starting from a live deployment, a patch produces a reconfiguration
    plan that touches only the changed elements and prefers *maximally
    adjacent* placements — the same device an element already lives on,
    or the devices hosting its pipeline neighbours — so resources are
    not reshuffled across the network.

    Nothing here mutates a device or the deployment: [plan_patch]
    searches resource snapshots, generates [candidates] alternative
    plans and returns the cheapest by predicted total work;
    [plan_full_recompile] is the compile-time baseline (drain, reflash
    every device, redeploy). [Runtime.Reconfig] executes the winning
    plan and commits the new program/placement on success. *)

open Flexbpf

type deployment = {
  mutable dep_prog : Ast.program;
  mutable dep_placement : Placement.t;
}

type report = {
  plan : Plan.t;
  moved_elements : int; (* elements installed, removed, or relocated *)
  touched_devices : string list;
  duration : float; (* parallel wall-clock model *)
  total_work : float; (* serial op time: intrusiveness *)
  cost : Plan.cost; (* full annotation incl. per-device resource deltas *)
}

(* The one op-serialization cost model (shared with runtime/benches). *)
let times_of_path = Plan.times_of_devices

let report_of_plan ~path ~deltas plan =
  let times_of = times_of_path path in
  let cost = Plan.cost_of ~times_of ~deltas plan in
  { plan;
    moved_elements =
      List.length
        (List.filter
           (function
             | Plan.Install _ | Plan.Remove _ | Plan.Move _ -> true
             | _ -> false)
           plan.Plan.ops);
    touched_devices = List.sort_uniq compare (List.map Plan.op_device plan.Plan.ops);
    duration = cost.Plan.c_duration;
    total_work = cost.Plan.c_total_work;
    cost }

type error =
  | Patch_error of string
  | Placement_error of Placement.failure
  | Exec_error of string

let ill_typed es =
  Patch_error (Fmt.str "%a" Fmt.(list ~sep:(any "; ") Typecheck.pp_error) es)

let pp_error ppf = function
  | Patch_error s -> Fmt.pf ppf "patch: %s" s
  | Placement_error f -> Placement.pp_failure ppf f
  | Exec_error s -> Fmt.pf ppf "execution: %s" s

(** A plan together with the deployment state it predicts: the program
    and element->device map after execution, and the per-device
    resource snapshots the executor reconciles against. *)
type planned_change = {
  ch_prog : Ast.program;
  ch_where : (string * Targets.Device.t) list;
    (* element name -> device, sharing the deployment's list where
       unchanged *)
  ch_snaps : (string * Targets.Resource.snapshot) list;
  ch_report : report;
  ch_candidates : int; (* candidate plans evaluated *)
}

(* Name-keyed lookups in [where], which holds every resident element,
   compare with [String.equal] rather than the stdlib's polymorphic
   [List.assoc] (and [List.mem]). [forget_in] copies only the entries
   before [name]'s. *)
let rec assoc_name name = function
  | [] -> None
  | (n, d) :: rest -> if String.equal n name then Some d else assoc_name name rest

let rec mem_name name = function
  | [] -> false
  | n :: rest -> String.equal n name || mem_name name rest

let rec forget_in name = function
  | [] -> []
  | ((n, _) as x) :: rest ->
    if String.equal n name then rest else x :: forget_in name rest

(* Positions of the nearest *placed* pipeline neighbours of the element
   at index [idx] of [pipeline] (the program's pipeline as an array),
   given placements [where]. [None] means no predecessor (resp.
   successor) is placed — adjacency is then one-sided; the path
   boundary is a feasibility limit, not a neighbour. *)
let adjacency_window ~path ~where pipeline idx =
  let pos_of i =
    match assoc_name (Ast.element_name pipeline.(i)) where with
    | Some d -> List.find_index (fun d' -> d' == d) path
    | None -> None
  in
  let n = Array.length pipeline in
  let rec pred i = if i < 0 then None else
      match pos_of i with Some p -> Some p | None -> pred (i - 1)
  in
  let rec succ i = if i >= n then None else
      match pos_of i with Some p -> Some p | None -> succ (i + 1)
  in
  (pred (idx - 1), succ (idx + 1))

(* Devices in the feasible region (between the placed neighbours, or up
   to the path boundary on a side with no neighbour) ordered by
   distance from the nearest placed neighbour; ties resolve in path
   order. Distance to an absent neighbour does not count — an appended
   element is maximally adjacent *to its predecessor*, the end of the
   path attracts nothing. With [prefer_adjacent:false] (the A1
   ablation) the ordering is inverted — the same generator, scored with
   the opposite sign, so the ablation differs only in preference
   order. *)
let window_candidates ~prefer_adjacent path (pred_pos, succ_pos)
    (u : Lowering.unit_) =
  let lo = Option.value pred_pos ~default:0 in
  let hi = max lo (Option.value succ_pos ~default:(List.length path - 1)) in
  let dist i =
    match (pred_pos, succ_pos) with
    | Some p, Some s -> min (i - p) (s - i)
    | Some p, None -> i - p
    | None, Some s -> s - i
    | None, None -> i - lo
  in
  let scored = ref [] in
  List.iteri
    (fun i d ->
      if
        i >= lo && i <= hi
        && Lowering.class_allows u.Lowering.u_class (Targets.Device.kind d)
      then begin
        let a = max 0 (dist i) in
        scored := ((if prefer_adjacent then a else -a), i, d) :: !scored
      end)
    path;
  List.rev !scored
  |> List.sort (fun (a, i, _) (b, j, _) -> compare (a, i) (b, j))
  |> List.map (fun (_, _, d) -> d)

(* Rotate a preference list left by [r]: candidate plan r starts from
   the r-th preferred device at every decision point. *)
let rec rotate r = function
  | [] -> []
  | x :: tl as l -> if r <= 0 then l else rotate (r - 1) (tl @ [ x ])

(* One candidate plan for a patch, exploring preference lists rotated
   by [rotation]. Pure: threads snapshots and a name->device map. Sets
   [branched] when some placement decision placed its element with
   more than one candidate device to choose from; when none did, every
   rotation makes the same plan, or fails at the same decision (a
   decision that fails has rejected every candidate, in whatever
   order). *)
let plan_once ~prefer_adjacent ~rotation ~branched ~path ~where:where0
    ~old_prog ~new_prog ~(diff : Patch.diff) plan_name =
  let snaps0 = Placement.default_snaps path in
  let snaps = ref snaps0 in
  let where = ref where0 in
  let ops = ref [] in
  let emit op = ops := op :: !ops in
  let set_snap id s = snaps := (id, s) :: List.remove_assoc id !snaps in
  let release id name =
    match Targets.Resource.release (List.assoc id !snaps) name with
    | Some (_slot, s') -> set_snap id s'
    | None -> ()
  in
  let forget name = where := forget_in name !where in
  let pipeline = lazy (Array.of_list new_prog.Ast.pipeline) in
  let install_in_window prog idx element =
    let u_class, u_cycles = Lowering.classify element in
    let u =
      { Lowering.u_element = element; u_index = idx; u_ctx = prog; u_class;
        u_cycles }
    in
    let window =
      adjacency_window ~path ~where:!where (Lazy.force pipeline) idx
    in
    let cands = window_candidates ~prefer_adjacent path window u in
    let several = match cands with _ :: _ :: _ -> true | _ -> false in
    let cands = rotate rotation cands in
    let rec attempt tried = function
      | [] -> Error { Placement.failed_unit = u; attempts = List.rev tried }
      | dev :: rest ->
        let id = Targets.Device.id dev in
        (match
           Targets.Resource.admit (List.assoc id !snaps) ~ctx:prog ~order:idx
             element
         with
         | Ok (_slot, s') ->
           if several then branched := true;
           set_snap id s';
           where := (Ast.element_name element, dev) :: !where;
           Ok id
         | Error reject -> attempt ((id, reject) :: tried) rest)
    in
    attempt [] cands
  in
  let fail = ref None in
  (* 1. removals *)
  List.iter
    (fun name ->
      match assoc_name name !where with
      | Some dev ->
        let id = Targets.Device.id dev in
        release id name;
        forget name;
        emit (Plan.Remove { device = id; element_name = name })
      | None -> ())
    diff.Patch.removed;
  (* 2. replacements: reinstall in the adjacency window; the executor
     carries map state across the uninstall/install *)
  List.iter
    (fun name ->
      if !fail = None then
        match assoc_name name !where with
        | None -> ()
        | Some old_dev ->
          let old_id = Targets.Device.id old_dev in
          let element = Option.get (Ast.find_element new_prog name) in
          let idx =
            Option.get
              (List.find_index
                 (fun e -> Ast.element_name e = name)
                 new_prog.Ast.pipeline)
          in
          release old_id name;
          forget name;
          (match install_in_window new_prog idx element with
           | Ok new_id ->
             if new_id = old_id then
               emit
                 (Plan.Install
                    { device = new_id; element; ctx = new_prog; order = idx })
             else
               emit
                 (Plan.Move
                    { from_device = old_id; to_device = new_id; element;
                      ctx = new_prog; order = idx })
           | Error f -> fail := Some f))
    diff.Patch.modified;
  (* 3. additions, in pipeline order *)
  List.iteri
    (fun idx el ->
      let name = Ast.element_name el in
      if !fail = None && mem_name name diff.Patch.added then
        match install_in_window new_prog idx el with
        | Ok id ->
          emit
            (Plan.Install { device = id; element = el; ctx = new_prog; order = idx })
        | Error f -> fail := Some f)
    new_prog.Ast.pipeline;
  match !fail with
  | Some f -> Error f
  | None ->
    (* 4. parser changes, on every device hosting part of the program.
       Ops are emitted for all hosts; the snapshot only changes where
       the rule change is effective (absent/present), which is exactly
       what the device itself will do. *)
    (if diff.Patch.parser_changed then begin
       let hosts =
         List.sort_uniq compare
           (List.map (fun (_, d) -> Targets.Device.id d) !where)
       in
       let removed =
         List.filter
           (fun r ->
             not
               (List.exists
                  (fun x -> x.Ast.pr_name = r.Ast.pr_name)
                  new_prog.Ast.parser))
           old_prog.Ast.parser
       in
       let added =
         List.filter
           (fun r ->
             not
               (List.exists
                  (fun x -> x.Ast.pr_name = r.Ast.pr_name)
                  old_prog.Ast.parser))
           new_prog.Ast.parser
       in
       List.iter
         (fun id ->
           List.iter
             (fun r ->
               (match
                  Targets.Resource.remove_parser_rule (List.assoc id !snaps)
                    r.Ast.pr_name
                with
                | Some s' -> set_snap id s'
                | None -> ());
               emit (Plan.Remove_parser { device = id; rule_name = r.Ast.pr_name }))
             removed;
           List.iter
             (fun r ->
               (match
                  Targets.Resource.add_parser_rule (List.assoc id !snaps) r
                with
                | Ok s' -> set_snap id s'
                | Error _ -> ());
               emit (Plan.Add_parser { device = id; rule = r }))
             added)
         hosts
     end);
    let plan = Plan.v plan_name (List.rev !ops) in
    let finalized =
      List.map (fun (id, s) -> (id, Targets.Resource.finalize s)) !snaps
    in
    let deltas = Placement.snapshot_deltas ~before:snaps0 ~after:finalized plan in
    Ok
      { ch_prog = new_prog;
        ch_where = !where;
        ch_snaps = finalized;
        ch_report = report_of_plan ~path ~deltas plan;
        ch_candidates = 1 }

(** Plan a patch against a live deployment without touching it.
    Generates up to [candidates] alternative plans (rotating the
    preference list at every placement decision) and returns the one
    with the least predicted total work (ties: fewer ops, then lowest
    rotation). [prefer_adjacent:false] is the A1 ablation baseline —
    same candidate generation, inverted preference order. *)
let plan_patch ?(candidates = 3) ?(prefer_adjacent = true) dep patch =
  match Patch.apply patch dep.dep_prog with
  | Error (`Patch e) -> Error (Patch_error (Fmt.str "%a" Patch.pp_error e))
  | Error (`Ill_typed es) -> Error (ill_typed es)
  | Ok (new_prog, diff) ->
    let path = dep.dep_placement.Placement.path in
    let where0 = dep.dep_placement.Placement.where in
    let k = max 1 candidates in
    let branched = ref false in
    let attempt rotation =
      plan_once ~prefer_adjacent ~rotation ~branched ~path ~where:where0
        ~old_prog:dep.dep_prog ~new_prog ~diff patch.Patch.patch_name
    in
    let first = attempt 0 in
    (* without a branching decision the other rotations would repeat
       rotation 0's plan (or failure) exactly: count them, do not
       rebuild them *)
    let attempts =
      if !branched then first :: List.init (k - 1) (fun r -> attempt (r + 1))
      else List.init k (fun _ -> first)
    in
    let oks = List.filter_map Result.to_option attempts in
    (match oks with
     | [] ->
       (match attempts with
        | Error f :: _ -> Error (Placement_error f)
        | _ -> assert false)
     | first :: rest ->
       let better a b =
         compare
           (a.ch_report.total_work, Plan.size a.ch_report.plan)
           (b.ch_report.total_work, Plan.size b.ch_report.plan)
         < 0
       in
       let best =
         List.fold_left (fun acc pc -> if better pc acc then pc else acc)
           first rest
       in
       Ok ({ best with ch_candidates = List.length oks }, diff))

(** Plan the compile-time baseline: remove every placed element and
    re-place the new program from scratch. The cost model is drain +
    full reflash on every touched device (that is what makes it a
    disruption, not just a bigger plan). Pure — on failure no device
    has changed, so there is nothing to restore. *)
let plan_full_recompile dep new_prog =
  match Patch.check_base new_prog with
  | Error es -> Error (ill_typed es)
  | Ok () ->
    let path = dep.dep_placement.Placement.path in
    let snaps0 = Placement.default_snaps path in
    let old_where =
      List.map
        (fun (n, d) -> (n, Targets.Device.id d))
        dep.dep_placement.Placement.where
    in
    let released =
      List.fold_left
        (fun snaps (name, id) ->
          match List.assoc_opt id snaps with
          | None -> snaps
          | Some s ->
            (match Targets.Resource.release s name with
             | Some (_slot, s') -> (id, s') :: List.remove_assoc id snaps
             | None -> snaps))
        snaps0 old_where
    in
    let rm_ops =
      List.map
        (fun (name, id) -> Plan.Remove { device = id; element_name = name })
        old_where
    in
    match
      Placement.plan_on ~plan_name:"full-recompile" ~snaps:released ~path
        new_prog
    with
    | Error f -> Error (Placement_error f)
    | Ok pl ->
      let plan =
        Plan.v ~residency:pl.Placement.pln_plan.Plan.residency "full-recompile"
          (rm_ops @ pl.Placement.pln_plan.Plan.ops)
      in
      let touched =
        List.sort_uniq compare
          (List.map snd old_where @ List.map snd pl.Placement.pln_where)
      in
      let times_of = times_of_path path in
      let reflash dev_id =
        let times = times_of dev_id in
        times.Targets.Arch.drain_time +. times.Targets.Arch.t_full_reflash
      in
      let duration = List.fold_left (fun acc d -> Float.max acc (reflash d)) 0. touched in
      let total_work = List.fold_left (fun acc d -> acc +. reflash d) 0. touched in
      let deltas =
        Placement.snapshot_deltas ~before:snaps0 ~after:pl.Placement.pln_snaps plan
      in
      let report =
        { plan;
          moved_elements = List.length old_where + List.length pl.Placement.pln_where;
          touched_devices = touched;
          duration;
          total_work;
          cost = { Plan.c_total_work = total_work; c_duration = duration; c_deltas = deltas } }
      in
      Ok
        { ch_prog = new_prog;
          ch_where =
            List.filter_map
              (fun (n, id) ->
                Option.map
                  (fun d -> (n, d))
                  (List.find_opt (fun d -> Targets.Device.id d = id) path))
              pl.Placement.pln_where;
          ch_snaps = pl.Placement.pln_snaps;
          ch_report = report;
          ch_candidates = 1 }
