(* E10 — Energy-aware consolidation with fungible resources (§3.3).

   "FlexNet is able to shuffle resources around and optimize for the
   current workload regarding network energy consumption."

   Six program elements are deployed *spread*, one per device across a
   slice of three dRMT switches, two SmartNICs, and a host stack (the
   high-load configuration). At each load level the controller policy
   decides: above 50% load keep the spread deployment (throughput
   headroom); below, consolidate elements onto the fewest devices and
   power the emptied ones down. Energy integrated over a 1-hour window. *)

open Flexbpf.Builder

let devices () = Common.mk_path ~arch:Targets.Arch.Drmt ~switches:3 ()

let workload_program () =
  program "workload"
    (List.init 6 (fun i -> Common.exact_table ~size:30_000 (Printf.sprintf "w%d" i)))

(* Spread deployment: element i pinned to device i+1 (skip h0). *)
let deploy_spread path =
  let prog = workload_program () in
  List.iteri
    (fun i el ->
      let dev = List.nth path (1 + i) in
      match Targets.Device.install dev ~ctx:prog ~order:i el with
      | Ok _ -> ()
      | Error r -> failwith (Targets.Resource.reject_to_string r))
    prog.Flexbpf.Ast.pipeline;
  { Compiler.Placement.path;
    where =
      List.mapi
        (fun i el -> (Flexbpf.Ast.element_name el, List.nth path (1 + i)))
        prog.Flexbpf.Ast.pipeline;
    prog }

let run_case ~load_fraction =
  let seconds = 3600. in
  let pps = load_fraction *. 1e6 in
  let energy devices =
    List.fold_left
      (fun acc d -> acc +. Targets.Device.energy_joules d ~seconds ~pps)
      0. devices
  in
  (* static baseline: spread, everything always on *)
  let static_path = devices () in
  ignore (deploy_spread static_path);
  let static_energy = energy static_path in
  (* policy-driven deployment *)
  let path = devices () in
  let placement = deploy_spread path in
  let consolidate = load_fraction < 0.5 in
  let report =
    if consolidate then Some (Runtime.Reconfig.consolidate placement) else None
  in
  let managed_energy = energy path in
  let watts_before, watts_after, off, moves =
    match report with
    | Some r ->
      ( r.Compiler.Energy.watts_before, r.Compiler.Energy.watts_after,
        List.length r.Compiler.Energy.powered_off,
        Compiler.Plan.size r.Compiler.Energy.plan )
    | None ->
      let w = Compiler.Energy.total_watts path in
      (w, w, 0, 0)
  in
  [ Report.pct load_fraction;
    (if consolidate then "consolidate" else "stay spread");
    Report.f1 watts_before;
    Report.f1 watts_after;
    Report.i off;
    Report.i moves;
    Report.f2 (static_energy /. 3.6e6);
    Report.f2 (managed_energy /. 3.6e6);
    Report.pct (1. -. (managed_energy /. static_energy)) ]

let run () =
  let rows =
    List.map (fun lf -> run_case ~load_fraction:lf) [ 1.0; 0.6; 0.3; 0.1 ]
  in
  Report.print ~id:"E10" ~title:"energy: load-aware consolidation (1h window)"
    ~claim:
      "with fungible resources, program elements consolidate onto fewer \
       devices at low load and idle devices power down, cutting network \
       energy; at high load the spread deployment is kept for throughput"
    ~header:
      [ "load"; "policy"; "watts-before"; "watts-after"; "devices-off";
        "moves"; "static(kWh)"; "managed(kWh)"; "energy-saved" ]
    rows
