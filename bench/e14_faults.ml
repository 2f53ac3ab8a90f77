(* E14 — Reconfiguration under injected faults (§2: hitless, atomic per
   device, "completes within a second" — when the network misbehaves).

   10k pps of CBR through a 3-switch path; at t=1s the middle switch
   gets a new program element, exactly as in E1, but now a seeded fault
   plan disturbs the run: dRPC invocations are dropped (a heartbeat
   workload rides the registry throughout), links gain extra delay, or
   the touched device crashes mid-op-batch and restarts on its old
   program. Hitless mode acknowledges the op batch per device, re-drives
   the plan after a crash, and aborts atomically when the retry budget
   is spent; the Drain baseline has no such machinery.

   Expected shape: Hitless keeps zero loss under every non-crash fault
   (dRPC drops are absorbed by retries, delay windows only shift
   arrivals) and stays old-XOR-new consistent in every scenario; a
   crash costs it only the crash downtime plus one re-drive. Drain
   loses the whole drain+reflash window every time, and the crash adds
   its downtime on top. *)

open Flexbpf.Builder

let seed = 11

type case = {
  sent : int;
  delivered : int;
  lost : int;
  duration : float;
  attempts : int;
  rolled_back : bool;
  consistent : bool; (* device ended old-XOR-new and unfrozen *)
  drpc_retries : int;
  drpc_gaveups : int;
}

let scenarios =
  [ ("none", []);
    ( "drpc loss p=0.3",
      [ Netsim.Faults.Drpc_window
          { service = "*"; start = 0.; stop = 2.5; drop_prob = 0.3 } ] );
    ( "drpc loss p=0.6",
      [ Netsim.Faults.Drpc_window
          { service = "*"; start = 0.; stop = 2.5; drop_prob = 0.6 } ] );
    ( "link delay +1ms",
      [ Netsim.Faults.Link_window
          { link = "*"; start = 0.9; stop = 1.5;
            what = Netsim.Faults.Extra_delay 0.001 } ] );
    ( "crash s1 mid-batch",
      [ Netsim.Faults.Device_crash
          { device = "s1"; at = 1.02; restart_after = 0.03 } ] ) ]

let run_case ~mode plan =
  let sim, _topo, h0, h1, devs, wireds, received = Common.wired_linear () in
  let faults = Netsim.Faults.create ~sim ~seed plan in
  List.iter (Runtime.Wiring.bind_faults faults) wireds;
  List.iter
    (fun w -> Netsim.Faults.bind_node_links faults w.Runtime.Wiring.node)
    wireds;
  (* a dRPC heartbeat workload rides the registry for the whole run *)
  let reg = Runtime.Drpc.create sim in
  Runtime.Drpc.set_faults reg (Some faults);
  Runtime.Drpc.register reg "heartbeat" (fun _ -> 1L);
  Netsim.Sim.every sim ~period:0.002 (fun () ->
      Runtime.Drpc.invoke_dataplane reg "heartbeat" [] ~k:(fun _ -> ());
      Netsim.Sim.now sim < 2.0);
  (* E1's traffic and reconfiguration, under the fault plan *)
  let sent = ref 0 in
  let gen = Netsim.Traffic.create sim in
  Netsim.Traffic.cbr gen ~rate_pps:10_000. ~start:0. ~stop:2.0 ~send:(fun () ->
      incr sent;
      Netsim.Node.send h0 ~port:0
        (Common.h0_h1_packet ~h0:h0.Netsim.Node.id ~h1:h1.Netsim.Node.id
           ~born:(Netsim.Sim.now sim)));
  let s1 = List.nth devs 1 in
  let counter = block "cnt" [ map_incr "hits" [ const 0 ] ] in
  let prog =
    program "p" ~maps:[ map_decl ~key_arity:1 ~size:4 "hits" ] [ counter ]
  in
  let plan_ =
    Compiler.Plan.v "add"
      [ Compiler.Plan.Install
          { device = "s1"; element = counter; ctx = prog; order = 0 } ]
  in
  let outcome = ref None in
  Netsim.Sim.at sim 1.0 (fun () ->
      Runtime.Reconfig.execute ~sim ~mode ~wireds ~devices:devs plan_
        ~max_retries:3 ~retry_backoff:0.02
        ~on_done:(fun o -> outcome := Some o));
  ignore (Netsim.Sim.run sim);
  let o = Option.get !outcome in
  let installed = List.mem "cnt" (Targets.Device.installed_names s1) in
  let consistent =
    (not (Targets.Device.is_frozen s1))
    && installed = not o.Runtime.Reconfig.rolled_back
  in
  { sent = !sent;
    delivered = !received;
    lost = !sent - !received;
    duration = o.Runtime.Reconfig.finished_at -. o.Runtime.Reconfig.started_at;
    attempts = o.Runtime.Reconfig.attempts;
    rolled_back = o.Runtime.Reconfig.rolled_back;
    consistent;
    drpc_retries = Obs.Metrics.get_counter (Runtime.Drpc.stats reg) "drpc.retries";
    drpc_gaveups = Obs.Metrics.get_counter (Runtime.Drpc.stats reg) "drpc.gaveups" }

(* Deploy (not patch) under a crash: the plan comes from the pure
   placement planner over the wired path and runs through the same
   engine as every patch — a crash mid-deploy must leave every device
   on the old xor the new program, never a partial install. *)
let run_deploy_case ~mode fault_plan =
  let sim, _topo, h0, h1, devs, wireds, received = Common.wired_linear () in
  let faults = Netsim.Faults.create ~sim ~seed fault_plan in
  List.iter (Runtime.Wiring.bind_faults faults) wireds;
  List.iter
    (fun w -> Netsim.Faults.bind_node_links faults w.Runtime.Wiring.node)
    wireds;
  let sent = ref 0 in
  let gen = Netsim.Traffic.create sim in
  Netsim.Traffic.cbr gen ~rate_pps:10_000. ~start:0. ~stop:2.0 ~send:(fun () ->
      incr sent;
      Netsim.Node.send h0 ~port:0
        (Common.h0_h1_packet ~h0:h0.Netsim.Node.id ~h1:h1.Netsim.Node.id
           ~born:(Netsim.Sim.now sim)));
  let prog =
    program "d"
      ~maps:[ map_decl ~key_arity:1 ~size:4 "hits" ]
      [ Common.exact_table ~size:64 "acl";
        Common.lpm_table ~size:64 "routes";
        block "cnt" [ map_incr "hits" [ const 0 ] ] ]
  in
  let planned =
    match Compiler.Placement.plan ~path:devs prog with
    | Ok p -> p
    | Error _ -> failwith "deploy planning failed"
  in
  let plan_ = planned.Compiler.Placement.pln_plan in
  let outcome = ref None in
  Netsim.Sim.at sim 1.0 (fun () ->
      Runtime.Reconfig.execute ~sim ~mode ~wireds ~devices:devs plan_
        ~max_retries:3 ~retry_backoff:0.02
        ~on_done:(fun o -> outcome := Some o));
  ignore (Netsim.Sim.run sim);
  let o = Option.get !outcome in
  (* old-XOR-new per device: a device hosts its full planned element
     set or none of it, matching the engine's verdict, and is thawed *)
  let consistent =
    List.for_all
      (fun d ->
        let id = Targets.Device.id d in
        let planned_here =
          List.filter_map
            (function
              | Compiler.Plan.Install { device; element; _ } when device = id
                ->
                Some (Flexbpf.Ast.element_name element)
              | _ -> None)
            plan_.Compiler.Plan.ops
        in
        let inst = Targets.Device.installed_names d in
        let present = List.filter (fun n -> List.mem n inst) planned_here in
        (not (Targets.Device.is_frozen d))
        && (present = [] || List.length present = List.length planned_here)
        && (planned_here = []
            || (present <> []) = not o.Runtime.Reconfig.rolled_back))
      devs
  in
  { sent = !sent;
    delivered = !received;
    lost = !sent - !received;
    duration = o.Runtime.Reconfig.finished_at -. o.Runtime.Reconfig.started_at;
    attempts = o.Runtime.Reconfig.attempts;
    rolled_back = o.Runtime.Reconfig.rolled_back;
    consistent;
    drpc_retries = 0;
    drpc_gaveups = 0 }

let row name mode_label c =
  [ name; mode_label; Report.i c.sent; Report.i c.delivered; Report.i c.lost;
    Report.f2 c.duration; Report.i c.attempts;
    (if c.rolled_back then "yes" else "no");
    (if c.consistent then "yes" else "NO");
    Report.i c.drpc_retries; Report.i c.drpc_gaveups ]

let run () =
  let deploy_crash =
    [ Netsim.Faults.Device_crash
        { device = "s0"; at = 1.02; restart_after = 0.03 } ]
  in
  let rows =
    List.concat_map
      (fun (name, plan) ->
        [ row name "hitless" (run_case ~mode:Runtime.Reconfig.Hitless plan);
          row name "drain" (run_case ~mode:Runtime.Reconfig.Drain plan) ])
      scenarios
    @ [ row "crash s0 mid-deploy" "hitless"
          (run_deploy_case ~mode:Runtime.Reconfig.Hitless deploy_crash);
        row "crash s0 mid-deploy" "drain"
          (run_deploy_case ~mode:Runtime.Reconfig.Drain deploy_crash) ]
  in
  Report.print ~id:"E14" ~title:"reconfiguration under injected faults"
    ~claim:
      "hitless reconfiguration stays zero-loss and old-XOR-new consistent \
       under dRPC loss and link-delay faults (retries absorb them); a \
       mid-batch device crash costs one re-drive and only the crash \
       downtime, while the drain baseline loses the full drain+reflash \
       window in every scenario"
    ~header:
      [ "faults"; "mode"; "sent"; "delivered"; "lost"; "duration(s)";
        "attempts"; "rolledback"; "consistent"; "rpc_retry"; "rpc_gaveup" ]
    rows
