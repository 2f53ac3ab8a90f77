(* Plan/execute split properties (qcheck).

   The compiler is a pure planner over resource snapshots and
   [Runtime.Reconfig] is the only executor. These properties pin the
   contract at the seam: executing an emitted plan leaves every
   device's actual resource state equal to the snapshot the planner
   predicted (plan/apply equivalence, for both deploy and patch), and
   planning is deterministic and side-effect free. *)

open Flexbpf.Builder

let to_alcotest = QCheck_alcotest.to_alcotest

(* A fresh mixed-architecture path: host stack, NIC, three switches of
   different fungibility classes, NIC, host stack — so plans cross the
   per-stage / pooled / tiled admission rules, not just one. *)
let mk_path () =
  [ Targets.Device.create ~id:"h0-stack" Targets.Arch.host_ebpf;
    Targets.Device.create ~id:"nic0" Targets.Arch.smartnic;
    Targets.Device.create ~id:"s0" Targets.Arch.drmt;
    Targets.Device.create ~id:"s1" Targets.Arch.rmt_runtime;
    Targets.Device.create ~id:"s2" Targets.Arch.tiles;
    Targets.Device.create ~id:"nic1" Targets.Arch.smartnic;
    Targets.Device.create ~id:"h1-stack" Targets.Arch.host_ebpf ]

let exact_table ?(size = 64) name =
  table name
    ~keys:[ exact (field "ipv4" "dst") ]
    ~actions:[ action "a" [ set_meta "x" (const 1) ] ]
    ~default:("a", []) ~size ()

(* Each bool in the spec picks the i-th element's kind: a match/action
   table (Switch_preferred) or a compute block (Anywhere). *)
let prog_of_spec spec =
  program "p"
    (List.mapi
       (fun i is_table ->
         if is_table then exact_table (Printf.sprintf "t%d" i)
         else
           block
             (Printf.sprintf "b%d" i)
             [ set_meta (Printf.sprintf "m%d" i) (const i) ])
       spec)

let spec_gen = QCheck.Gen.(list_size (int_range 1 10) bool)

let spec_print s =
  String.concat "" (List.map (fun b -> if b then "T" else "B") s)

let spec_arb = QCheck.make ~print:spec_print spec_gen

(* Predicted snapshot = actual device state, for every device the
   planner predicted (untouched devices must reconcile too). *)
let check_reconciled ~path snaps =
  List.iter
    (fun (id, predicted) ->
      match
        List.find_opt (fun d -> Targets.Device.id d = id) path
      with
      | None -> QCheck.Test.fail_reportf "predicted unknown device %s" id
      | Some d -> (
        match Targets.Resource.diff predicted (Targets.Device.snapshot d) with
        | [] -> ()
        | ms ->
          QCheck.Test.fail_reportf "snapshot mismatch on %s: %s" id
            (String.concat "; " ms)))
    snaps

(* -- deploy: executing the plan realizes the predicted snapshots --------- *)

let prop_deploy_plan_apply spec =
  let prog = prog_of_spec spec in
  let path = mk_path () in
  match Compiler.Placement.plan ~path prog with
  | Error f ->
    QCheck.Test.fail_reportf "placement: %a" Compiler.Placement.pp_failure f
  | Ok pl -> (
    match
      Runtime.Reconfig.run_plan ~predicted:pl.Compiler.Placement.pln_snaps
        ~devices:path pl.Compiler.Placement.pln_plan
    with
    | Error e -> QCheck.Test.fail_reportf "exec: %s" e
    | Ok () ->
      check_reconciled ~path pl.Compiler.Placement.pln_snaps;
      true)

(* -- patch: same equivalence through the incremental planner ------------- *)

let base_prog () =
  program "base"
    [ exact_table "base0"; exact_table "base1";
      block "base2" [ set_meta "seen" (const 1) ] ]

let patch_of_spec (spec, remove) =
  let adds =
    List.mapi
      (fun i is_table ->
        let el =
          if is_table then exact_table (Printf.sprintf "n%d" i)
          else
            block
              (Printf.sprintf "nb%d" i)
              [ set_meta (Printf.sprintf "nm%d" i) (const i) ]
        in
        let pos =
          if i mod 2 = 0 then Flexbpf.Patch.At_end
          else Flexbpf.Patch.After (Flexbpf.Patch.Sel_name "base0")
        in
        Flexbpf.Patch.Add_element (pos, el))
      spec
  in
  let removes =
    if remove then
      [ Flexbpf.Patch.Remove_element (Flexbpf.Patch.Sel_name "base1") ]
    else []
  in
  Flexbpf.Patch.v "change" (adds @ removes)

let patch_gen = QCheck.Gen.(pair spec_gen bool)

let patch_arb =
  QCheck.make
    ~print:(fun (s, rm) ->
      Printf.sprintf "%s%s" (spec_print s) (if rm then "-base1" else ""))
    patch_gen

let deploy_base path =
  match Runtime.Reconfig.deploy ~path (base_prog ()) with
  | Ok dep -> dep
  | Error f ->
    QCheck.Test.fail_reportf "base deploy: %a" Compiler.Placement.pp_failure f

let prop_patch_plan_apply case =
  let path = mk_path () in
  let dep = deploy_base path in
  match Compiler.Incremental.plan_patch dep (patch_of_spec case) with
  | Error e ->
    QCheck.Test.fail_reportf "plan_patch: %a" Compiler.Incremental.pp_error e
  | Ok (pc, _diff) -> (
    match
      Runtime.Reconfig.run_plan ~predicted:pc.Compiler.Incremental.ch_snaps
        ~devices:path
        pc.Compiler.Incremental.ch_report.Compiler.Incremental.plan
    with
    | Error e -> QCheck.Test.fail_reportf "exec: %s" e
    | Ok () ->
      check_reconciled ~path pc.Compiler.Incremental.ch_snaps;
      true)

(* -- determinism: same inputs, same plan --------------------------------- *)

let prop_deploy_plan_deterministic spec =
  let prog = prog_of_spec spec in
  let a = Compiler.Placement.plan ~path:(mk_path ()) prog in
  let b = Compiler.Placement.plan ~path:(mk_path ()) prog in
  match (a, b) with
  | Ok a, Ok b ->
    a.Compiler.Placement.pln_plan = b.Compiler.Placement.pln_plan
    && a.Compiler.Placement.pln_where = b.Compiler.Placement.pln_where
    && a.Compiler.Placement.pln_cost = b.Compiler.Placement.pln_cost
  | _ -> QCheck.Test.fail_report "planning failed"

(* plan_patch is pure: planning twice gives the same answer and leaves
   every device's resource state untouched *)
let prop_plan_patch_pure case =
  let path = mk_path () in
  let dep = deploy_base path in
  let before = List.map Targets.Device.snapshot path in
  let patch = patch_of_spec case in
  let r1 = Compiler.Incremental.plan_patch dep patch in
  let r2 = Compiler.Incremental.plan_patch dep patch in
  List.iter2
    (fun d s ->
      match Targets.Resource.diff s (Targets.Device.snapshot d) with
      | [] -> ()
      | ms ->
        QCheck.Test.fail_reportf "planning mutated %s: %s"
          (Targets.Device.id d)
          (String.concat "; " ms))
    path before;
  match (r1, r2) with
  | Ok (a, _), Ok (b, _) ->
    let where_ids pc =
      List.map
        (fun (n, d) -> (n, Targets.Device.id d))
        pc.Compiler.Incremental.ch_where
    in
    where_ids a = where_ids b
    && a.Compiler.Incremental.ch_report.Compiler.Incremental.plan
       = b.Compiler.Incremental.ch_report.Compiler.Incremental.plan
  | Error _, Error _ -> true (* same rejection both times is fine *)
  | _ -> QCheck.Test.fail_report "plan_patch not deterministic"

let () =
  Alcotest.run "plan"
    [ ( "plan/apply equivalence",
        [ to_alcotest
            (QCheck.Test.make ~name:"deploy: executed plan matches snapshots"
               ~count:100 spec_arb prop_deploy_plan_apply);
          to_alcotest
            (QCheck.Test.make ~name:"patch: executed plan matches snapshots"
               ~count:100 patch_arb prop_patch_plan_apply) ] );
      ( "planner determinism",
        [ to_alcotest
            (QCheck.Test.make ~name:"deploy planning is deterministic"
               ~count:50 spec_arb prop_deploy_plan_deterministic);
          to_alcotest
            (QCheck.Test.make ~name:"plan_patch is pure and deterministic"
               ~count:50 patch_arb prop_plan_patch_pure) ] ) ]
