(** The one reconfiguration engine: every change to a live datapath —
    deploy, patch, recompile, GC/defragment, state migration — arrives
    here as a [Compiler.Plan.t] and is executed against the devices
    under two-version windows. The compiler never touches a device; it
    plans over resource snapshots and this module interprets the ops.

    Both entry points share one staging step: freeze the devices the
    plan touches structurally (those not already inside another plan's
    open window, whose ops ride that window), interpret the ops, and
    roll the opened windows back on an op failure.

    - [run_plan] (untimed, used by the control plane) closes its window
      at once and — when the planner supplied predicted snapshots —
      reconciles the actual device state against the prediction.

    - [execute] (timed, under the simulator) matches §1's contrast with
      two modes. [Hitless] (runtime programmable): the touched devices
      keep serving traffic with their old program while the ops run;
      the window closes at the acknowledgement, when the slowest
      device's modelled op batch completes, and every touched device
      flips to the new program at that instant. Zero loss; "program
      changes complete within a second". [Drain] (compile-time
      baseline): each touched wired device is isolated (traffic
      drained — here: dropped, as the path has no alternates),
      reflashed with the full program, then redeployed. Loss is
      proportional to drain + reflash time.

    Failure handling (Hitless): a device that crashed inside the window
    fails the acknowledgement and restarts on its old program
    (Targets.Device rolls the in-flight mutations back at restart); the
    surviving devices are rolled back too, and the whole plan is
    re-driven after a bounded exponential backoff. When the retry
    budget runs out the plan aborts atomically: every touched device
    ends on its old program. An op the devices reject aborts the same
    way at once, without a retry — the rejection is deterministic.
    Either way each device runs old-XOR-new, never a mix. *)

open Flexbpf

type mode = Hitless | Drain

type outcome = {
  started_at : float;
  finished_at : float;
  attempts : int; (* 1 on a fault-free run *)
  rolled_back : bool; (* true: plan aborted, all devices on old program *)
}

(* -- The op interpreter ------------------------------------------------ *)

let find_device devices id =
  List.find_opt (fun d -> Targets.Device.id d = id) devices

let snapshot_maps dev element =
  Compose.element_maps element
  |> List.sort_uniq compare
  |> List.filter_map (fun name ->
         Option.map
           (fun st -> (name, State.snapshot st))
           (Targets.Device.map_state dev name))

let restore_maps dev snaps =
  List.iter
    (fun (name, snap) ->
      ignore (Targets.Device.load_map_snapshot dev name snap))
    snaps

(** Interpret one op against live devices. [Install] of an
    already-installed name is a replacement: the element's map state is
    carried across the uninstall/reinstall. *)
let apply_op devices op =
  let dev id =
    match find_device devices id with
    | Some d -> Ok d
    | None -> Error (Printf.sprintf "unknown device %s" id)
  in
  match op with
  | Compiler.Plan.Install { device; element; ctx; order } ->
    Result.bind (dev device) (fun d ->
        let name = Ast.element_name element in
        let carried =
          if List.mem name (Targets.Device.installed_names d) then begin
            let c = snapshot_maps d element in
            ignore (Targets.Device.uninstall d name);
            c
          end
          else []
        in
        match Targets.Device.install d ~ctx ~order element with
        | Ok _ -> restore_maps d carried; Ok ()
        | Error r ->
          Error
            (Printf.sprintf "install %s on %s: %s" name device
               (Targets.Resource.reject_to_string r)))
  | Remove { device; element_name } ->
    Result.bind (dev device) (fun d ->
        ignore (Targets.Device.uninstall d element_name);
        Ok ())
  | Move { from_device; to_device; element; ctx; order } ->
    Result.bind (dev from_device) (fun src ->
        Result.bind (dev to_device) (fun dst ->
            let name = Ast.element_name element in
            let carried = snapshot_maps src element in
            (* both tiers travel with a table: the authoritative host-
               tier rule set, and (best-effort) the resident hot-key set
               of the device tier so the destination starts warm.
               Captured before the uninstall, replayed after the
               install — invisible to traffic until the thaw. *)
            let rules, hot =
              match element with
              | Ast.Table tbl ->
                ( Interp.table_rules (Targets.Device.env src) tbl.Ast.tbl_name,
                  Targets.Device.tier_resident_keys src tbl.Ast.tbl_name )
              | Ast.Block _ -> ([], [])
            in
            ignore (Targets.Device.uninstall src name);
            match Targets.Device.install dst ~ctx ~order element with
            | Ok _ ->
              restore_maps dst carried;
              (match element with
               | Ast.Table tbl ->
                 let tname = tbl.Ast.tbl_name in
                 let dst_env = Targets.Device.env dst in
                 (* rule storage is newest-first: replay oldest-first to
                    preserve install order and first-match semantics *)
                 List.iter
                   (fun r -> Interp.install_rule dst_env tname r)
                   (List.rev rules);
                 if hot <> [] then Targets.Device.warm_tier dst tname hot
               | Ast.Block _ -> ());
              Ok ()
            | Error r ->
              Error
                (Printf.sprintf "move %s to %s: %s" name to_device
                   (Targets.Resource.reject_to_string r))))
  | Add_parser { device; rule } ->
    Result.bind (dev device) (fun d ->
        (* tolerated: the planner may emit rules a host already has *)
        (match Targets.Device.add_parser_rule d rule with
         | Ok () | Error _ -> ());
        Ok ())
  | Remove_parser { device; rule_name } ->
    Result.bind (dev device) (fun d ->
        ignore (Targets.Device.remove_parser_rule d rule_name);
        Ok ())
  | Migrate_state { from_device; to_device; map_name } ->
    Result.bind (dev from_device) (fun src ->
        Result.bind (dev to_device) (fun dst ->
            match Targets.Device.map_state src map_name with
            | None ->
              Error
                (Printf.sprintf "migrate-state: no map %s on %s" map_name
                   from_device)
            | Some st ->
              if
                Targets.Device.load_map_snapshot dst map_name
                  (State.snapshot st)
              then Ok ()
              else
                Error
                  (Printf.sprintf "migrate-state: map %s not declared on %s"
                     map_name to_device)))
  | Defragment { device; moves = _ } ->
    Result.bind (dev device) (fun d ->
        ignore (Targets.Device.defragment d);
        Ok ())

let apply_ops devices plan =
  let rec go = function
    | [] -> Ok ()
    | op :: rest ->
      (match apply_op devices op with Ok () -> go rest | Error e -> Error e)
  in
  go plan.Compiler.Plan.ops

(* Devices whose structural state an op mutates (state migration only
   copies map contents; it needs no two-version window). *)
let structural_op_devices = function
  | Compiler.Plan.Migrate_state _ -> []
  | Compiler.Plan.Move { from_device; to_device; _ } ->
    [ from_device; to_device ]
  | op -> [ Compiler.Plan.op_device op ]

(* The staging step both entry points share: open a window on every
   structurally-touched device not already inside one, interpret the
   ops, and on an op failure roll the opened windows back. Returns the
   devices whose window this call opened. *)
let stage ~devices plan =
  let opened =
    List.concat_map structural_op_devices plan.Compiler.Plan.ops
    |> List.sort_uniq compare
    |> List.filter_map (find_device devices)
    |> List.filter (fun d -> not (Targets.Device.is_frozen d))
  in
  List.iter Targets.Device.freeze opened;
  match apply_ops devices plan with
  | Ok () -> Ok opened
  | Error e ->
    List.iter Targets.Device.rollback opened;
    Error e

(** Untimed plan execution: stage the plan and close its window at
    once, so the plan is transactional over the devices this call
    froze. With [predicted] (the planner's post-execution snapshots),
    the actual device state is reconciled against the prediction after
    the thaw; devices still inside another plan's window are skipped —
    their deferred cleanups have not run yet. *)
let run_plan ?obs ?parent ?predicted ~devices plan =
  (* untimed: the span records structure (plan name, op count, outcome)
     under the caller's virtual clock; start = end unless the caller's
     clock advances, which it cannot here *)
  let span =
    Option.map
      (fun scope ->
        Obs.Trace.start (Obs.Scope.trace scope) ?parent "reconfig.run_plan"
          ~attrs:
            [ ("plan", Obs.Trace.S plan.Compiler.Plan.plan_name);
              ("ops", Obs.Trace.I (List.length plan.Compiler.Plan.ops)) ])
      obs
  in
  let finish result =
    (match obs, span with
     | Some scope, Some span ->
       Obs.Trace.finish (Obs.Scope.trace scope) span
         ~attrs:[ ("ok", Obs.Trace.B (Result.is_ok result)) ]
     | _ -> ());
    result
  in
  finish
    (match stage ~devices plan with
     | Error e -> Error e
     | Ok opened ->
       List.iter Targets.Device.thaw opened;
       (match predicted with
        | None -> Ok ()
        | Some preds ->
          let mismatches =
            List.concat_map
              (fun (id, snap) ->
                match find_device devices id with
                | None -> []
                | Some d ->
                  if Targets.Device.is_frozen d then []
                  else
                    List.map
                      (fun m -> id ^ ": " ^ m)
                      (Targets.Resource.diff snap (Targets.Device.snapshot d)))
              preds
          in
          if mismatches = [] then Ok ()
          else
            Error
              ("reconciliation failed: " ^ String.concat "; " mismatches)))

(* Serial op time per device of [devices] that the plan touches (the
   cost model itself lives in [Compiler.Plan.times_of_devices]). Every
   structurally-touched device appears even when the op's cost is
   charged elsewhere — a Move's source uninstalls inside the same
   window while the time is billed to the destination — so a crash
   there fails the acknowledgement too. *)
let device_times ~devices plan =
  let times =
    Compiler.Plan.per_device_times
      ~times_of:(Compiler.Plan.times_of_devices devices) plan
  in
  List.concat_map
    (fun op -> Compiler.Plan.op_device op :: structural_op_devices op)
    plan.Compiler.Plan.ops
  |> List.sort_uniq compare
  |> List.filter_map (fun id ->
         Option.map
           (fun d -> (d, Option.value (List.assoc_opt id times) ~default:0.))
           (find_device devices id))

(** Execute [plan] over [devices] starting now; [wireds] are the
    devices' packet-path attachments, which [Drain] takes offline.
    [on_done] fires when the window closed or the plan aborted. *)
let execute ?(on_done = fun (_ : outcome) -> ()) ?(max_retries = 2)
    ?(retry_backoff = 0.05) ~sim ~mode ~wireds ~devices plan =
  let registry = Obs.Scope.metrics (Netsim.Sim.obs sim) in
  let tr = Obs.Scope.trace (Netsim.Sim.obs sim) in
  let start = Netsim.Sim.now sim in
  let times = device_times ~devices plan in
  let finish = List.fold_left (fun acc (_, t) -> Float.max acc t) 0. times in
  let exec_span =
    Obs.Trace.start tr "reconfig.execute"
      ~attrs:
        [ ("plan", Obs.Trace.S plan.Compiler.Plan.plan_name);
          ("mode", Obs.Trace.S (match mode with Hitless -> "hitless" | Drain -> "drain"));
          ("devices", Obs.Trace.I (List.length times)) ]
  in
  let on_done ~attempts ~rolled_back =
    Obs.Trace.finish tr exec_span
      ~attrs:
        [ ("attempts", Obs.Trace.I attempts);
          ("rolled_back", Obs.Trace.B rolled_back) ];
    on_done
      { started_at = start; finished_at = Netsim.Sim.now sim; attempts;
        rolled_back }
  in
  match mode with
  | Hitless ->
    (* Per attempt: stage (freeze → mutate), precompile the new fast
       paths, acknowledge at the end of the window. Commit (thaw) only
       if every touched device survived the window; otherwise roll the
       survivors back (crashed devices roll back at restart) and
       re-drive. *)
    let touched = List.map fst times in
    let rec attempt k =
      let att_span =
        Obs.Trace.start tr ~parent:exec_span "reconfig.attempt"
          ~attrs:[ ("n", Obs.Trace.I (k + 1)) ]
      in
      let close_attempt ok =
        Obs.Trace.finish tr att_span ~attrs:[ ("ok", Obs.Trace.B ok) ]
      in
      if not (List.for_all Targets.Device.powered_on touched) then begin
        close_attempt false;
        retry_or_abort k (* a device is still down: back off, retry *)
      end
      else begin
        let marks = List.map (fun d -> (d, Targets.Device.crashes d)) touched in
        match stage ~devices plan with
        | Error e ->
          (* a rejected op is deterministic: abort without a retry *)
          Obs.Trace.add_attr att_span "error" (Obs.Trace.S e);
          close_attempt false;
          on_done ~attempts:(k + 1) ~rolled_back:true
        | Ok opened ->
          (* stage the new program's compiled fast path inside the
             window: traffic still runs the frozen old program, and the
             thaw flips to an already-compiled replacement *)
          List.iter Targets.Device.precompile opened;
          Netsim.Sim.after sim finish (fun () ->
              let acked (d, crashes0) =
                Targets.Device.powered_on d
                && Targets.Device.crashes d = crashes0
              in
              if List.for_all acked marks then begin
                List.iter Targets.Device.thaw opened;
                close_attempt true;
                on_done ~attempts:(k + 1) ~rolled_back:false
              end
              else begin
                (* un-acked batch: survivors roll back now, crashed
                   devices roll back on restart *)
                List.iter
                  (fun d ->
                    if Targets.Device.powered_on d then
                      Targets.Device.rollback d)
                  opened;
                close_attempt false;
                retry_or_abort k
              end)
      end
    and retry_or_abort k =
      if k < max_retries then begin
        Obs.Metrics.incr registry "reconfig.retries";
        Netsim.Sim.after sim
          (retry_backoff *. (2. ** float_of_int k))
          (fun () -> attempt (k + 1))
      end
      else begin
        (* every attempt's windows are already closed: survivors rolled
           back at the failed acknowledgement, crashed devices roll back
           at restart *)
        Obs.Metrics.incr registry "reconfig.gaveups";
        on_done ~attempts:(k + 1) ~rolled_back:true
      end
    in
    attempt 0
  | Drain ->
    (* take each touched wired device offline for drain + full reflash *)
    let downtimes =
      List.map
        (fun (d, _) ->
          match List.find_opt (fun w -> w.Wiring.device == d) wireds with
          | Some w ->
            let r = Targets.Device.reconfig_times d in
            Wiring.set_online w false;
            (Some w, r.Targets.Arch.drain_time +. r.Targets.Arch.t_full_reflash)
          | None -> (None, 0.))
        times
    in
    ignore (apply_ops devices plan);
    List.iter
      (fun (w, down) ->
        Option.iter
          (fun w -> Netsim.Sim.after sim down (fun () -> Wiring.set_online w true))
          w)
      downtimes;
    let finish =
      List.fold_left (fun acc (_, t) -> Float.max acc t) 0. downtimes
    in
    Netsim.Sim.after sim finish (fun () ->
        on_done ~attempts:1 ~rolled_back:false)

(* -- Plan-then-execute entry points ------------------------------------ *)

(* Run [f] under a named span when an observability scope was supplied;
   [f] gets the span (or [None]) to parent the inner [run_plan] span. *)
let with_obs_span obs name attrs f =
  match obs with
  | None -> f None
  | Some scope ->
    Obs.Trace.with_span (Obs.Scope.trace scope) name ~attrs (fun span ->
        f (Some span))

let placement_of ~path ~prog where_ids =
  { Compiler.Placement.path; prog;
    where =
      List.filter_map
        (fun (n, id) -> Option.map (fun d -> (n, d)) (find_device path id))
        where_ids }

(** Plan and execute a fresh placement. Planning failures are reported;
    an execution failure of a freshly planned op means planner and
    device admission disagree — an invariant violation. *)
let place ?obs ~path prog =
  with_obs_span obs "reconfig.deploy"
    [ ("program", Obs.Trace.S prog.Flexbpf.Ast.prog_name) ]
    (fun parent ->
      match Compiler.Placement.plan ~path prog with
      | Error f -> Error f
      | Ok pl ->
        (match
           run_plan ?obs ?parent ~predicted:pl.Compiler.Placement.pln_snaps
             ~devices:path pl.Compiler.Placement.pln_plan
         with
         | Ok () -> Ok (placement_of ~path ~prog pl.Compiler.Placement.pln_where)
         | Error e -> failwith ("deploy execution failed: " ^ e)))

(** Remove a placed program from its devices. *)
let unplace ?obs (p : Compiler.Placement.t) =
  let ops =
    List.map
      (fun (name, dev) ->
        Compiler.Plan.Remove
          { device = Targets.Device.id dev; element_name = name })
      p.Compiler.Placement.where
  in
  (match
     run_plan ?obs ~devices:p.Compiler.Placement.path
       (Compiler.Plan.v "unplace" ops)
   with
   | Ok () | Error _ -> ());
  p.Compiler.Placement.where <- []

(** Deploy a program fresh onto a path. *)
let deploy ?obs ~path prog =
  Result.map
    (fun placement ->
      { Compiler.Incremental.dep_prog = prog; dep_placement = placement })
    (place ?obs ~path prog)

(** Record an executed change on the deployment: its new program and
    element placement. *)
let commit_deployment (dep : Compiler.Incremental.deployment)
    (pc : Compiler.Incremental.planned_change) =
  let path = dep.dep_placement.Compiler.Placement.path in
  dep.dep_prog <- pc.Compiler.Incremental.ch_prog;
  dep.dep_placement.Compiler.Placement.where <-
    List.filter_map
      (fun (n, id) -> Option.map (fun d -> (n, d)) (find_device path id))
      pc.Compiler.Incremental.ch_where

(** Plan a patch ([Compiler.Incremental.plan_patch], with candidate
    search), execute the winning plan, reconcile against the predicted
    snapshots, and commit the new program/placement. The deployment is
    untouched on any error. *)
let apply_patch ?obs ?candidates ?prefer_adjacent
    (dep : Compiler.Incremental.deployment) patch =
  with_obs_span obs "reconfig.patch"
    [ ("program", Obs.Trace.S dep.Compiler.Incremental.dep_prog.Flexbpf.Ast.prog_name) ]
    (fun parent ->
      match
        Compiler.Incremental.plan_patch ?candidates ?prefer_adjacent dep patch
      with
      | Error e -> Error e
      | Ok (pc, diff) ->
        let path = dep.dep_placement.Compiler.Placement.path in
        (match
           run_plan ?obs ?parent ~predicted:pc.Compiler.Incremental.ch_snaps
             ~devices:path
             pc.Compiler.Incremental.ch_report.Compiler.Incremental.plan
         with
         | Error e -> Error (Compiler.Incremental.Exec_error e)
         | Ok () ->
           commit_deployment dep pc;
           Ok (pc.Compiler.Incremental.ch_report, diff)))

(** Plan and execute the compile-time baseline (full teardown and
    redeploy). *)
let full_recompile ?obs (dep : Compiler.Incremental.deployment) new_prog =
  with_obs_span obs "reconfig.full_recompile"
    [ ("program", Obs.Trace.S new_prog.Flexbpf.Ast.prog_name) ]
    (fun parent ->
      match Compiler.Incremental.plan_full_recompile dep new_prog with
      | Error e -> Error e
      | Ok pc ->
        let path = dep.dep_placement.Compiler.Placement.path in
        (match
           run_plan ?obs ?parent ~predicted:pc.Compiler.Incremental.ch_snaps
             ~devices:path
             pc.Compiler.Incremental.ch_report.Compiler.Incremental.plan
         with
         | Error e -> Error (Compiler.Incremental.Exec_error e)
         | Ok () ->
           commit_deployment dep pc;
           Ok pc.Compiler.Incremental.ch_report))

(* -- Fungible compilation, executed ------------------------------------ *)

type fungible_outcome = {
  placement : Compiler.Placement.t option;
  iterations : int; (* placement attempts *)
  gc_removed : string list;
  defrag_moves : int;
  failure : Compiler.Placement.failure option;
}

let run_fungible ?obs ~path ~prog (o : Compiler.Fungible.outcome) =
  let placement =
    match o.Compiler.Fungible.planned with
    | None -> None
    | Some pl ->
      (match
         run_plan ?obs ~predicted:pl.Compiler.Placement.pln_snaps ~devices:path
           pl.Compiler.Placement.pln_plan
       with
       | Ok () ->
         Some (placement_of ~path ~prog pl.Compiler.Placement.pln_where)
       | Error e -> failwith ("fungible execution failed: " ^ e))
  in
  { placement; iterations = o.Compiler.Fungible.iterations;
    gc_removed = o.Compiler.Fungible.gc_removed;
    defrag_moves = o.Compiler.Fungible.defrag_moves;
    failure = o.Compiler.Fungible.failure }

(** One-shot bin-packing baseline, planned then executed. *)
let place_once ?obs ~path prog =
  run_fungible ?obs ~path ~prog (Compiler.Fungible.place_once ~path prog)

(** The fungible compilation loop (GC + defragmentation), planned then
    executed as a single plan. On failure nothing was executed, so the
    devices are untouched. *)
let place_with_gc ?obs ?max_iterations ~path ~removable prog =
  run_fungible ?obs ~path ~prog
    (Compiler.Fungible.place_with_gc ?max_iterations ~path ~removable prog)

(* -- Energy consolidation, executed ------------------------------------- *)

(** Plan a consolidation over snapshots, execute its moves as one plan
    (rules and map state travel with each element), power off the
    devices left empty, and record the new placement. *)
let consolidate (p : Compiler.Placement.t) =
  let c = Compiler.Energy.consolidate p in
  (match
     run_plan ~predicted:c.Compiler.Energy.snaps
       ~devices:p.Compiler.Placement.path c.Compiler.Energy.plan
   with
   | Ok () -> ()
   | Error e -> failwith ("consolidation execution failed: " ^ e));
  List.iter
    (fun d ->
      if List.mem (Targets.Device.id d) c.Compiler.Energy.powered_off then
        Targets.Device.set_power d false)
    p.Compiler.Placement.path;
  p.Compiler.Placement.where <- c.Compiler.Energy.where;
  c
