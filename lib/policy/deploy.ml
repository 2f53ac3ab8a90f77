module D = Targets.Device

type error =
  | Compile_error of Compile.error
  | Runtime_error of string

let pp_error ppf = function
  | Compile_error e -> Compile.pp_error ppf e
  | Runtime_error msg -> Format.fprintf ppf "runtime: %s" msg

type deployment = {
  dp_name : string;
  dp_owner : string;
  dp_pol : Ast.pol;
  dp_devices : (D.t * Compile.lowered) list;
}

(* Plan every slice over its device's snapshot before any device is
   touched: one Install per element, in pipeline order. Returns the
   concatenated ops and the predicted snapshots. *)
let plan_slices slices =
  List.fold_left
    (fun acc (dev, lw) ->
      Result.bind acc (fun (ops, snaps) ->
          match Compiler.Placement.plan ~path:[ dev ] lw.Compile.lw_prog with
          | Error f ->
            Error (Runtime_error (Fmt.str "%a" Compiler.Placement.pp_failure f))
          | Ok pl ->
            Ok
              ( ops @ pl.Compiler.Placement.pln_plan.Compiler.Plan.ops,
                snaps @ pl.Compiler.Placement.pln_snaps )))
    (Ok ([], [])) slices

let removal_plan dp =
  Compiler.Plan.v ("policy:" ^ dp.dp_name ^ ":remove")
    (List.concat_map
       (fun (d, lw) ->
         List.map
           (fun el ->
             Compiler.Plan.Remove
               { device = D.id d;
                 element_name = Flexbpf.Ast.element_name el })
           lw.Compile.lw_prog.Flexbpf.Ast.pipeline)
       dp.dp_devices)

let undeploy ?obs dp =
  Runtime.Reconfig.run_plan ?obs ~devices:(List.map fst dp.dp_devices)
    (removal_plan dp)

let install_rules slices =
  List.iter
    (fun (d, lw) ->
      List.iter
        (fun (tbl, rules) ->
          List.iter (Flexbpf.Interp.install_rule (D.env d) tbl) rules)
        lw.Compile.lw_rules)
    slices

let deploy ?obs ?(owner = "infra") ~name ~devices pol =
  let assignment = List.map (fun (d, sw) -> (D.id d, sw)) devices in
  match Compile.compile ~owner ~name ~devices:assignment pol with
  | Error e -> Error (Compile_error e)
  | Ok lowered ->
    let devs = List.map fst devices in
    let slices =
      List.map (fun (id, lw) -> (List.find (fun d -> D.id d = id) devs, lw))
        lowered
    in
    (match plan_slices slices with
     | Error _ as e -> e
     | Ok (ops, predicted) ->
       (match
          Runtime.Reconfig.run_plan ?obs ~predicted ~devices:devs
            (Compiler.Plan.v ("policy:" ^ name) ops)
        with
        | Error msg -> Error (Runtime_error msg)
        | Ok () ->
          let dp =
            { dp_name = name; dp_owner = owner; dp_pol = pol;
              dp_devices = slices }
          in
          (* no simulator event runs before the rules land, so no packet
             meets a policy table without its rules *)
          (match install_rules slices with
           | () -> Ok dp
           | exception Flexbpf.Interp.Eval_error msg ->
             ignore (undeploy ?obs dp);
             Error (Runtime_error msg))))
