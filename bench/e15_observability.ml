(* E15 — Observability: hot-path overhead and trace-derived timing.

   Part 1: per-packet cost of metrics instrumentation on the compiled
   fast path — [Targets.Device.exec] with and without an obs scope
   attached. The per-generation counter handle is resolved once and
   cached, so the instrumented path should stay within a few percent
   (and well within the micro --check tolerance, which gates the
   compiled path itself).

   Part 2: E1's sub-second hitless-reconfiguration claim re-derived
   purely from the span trace: run the same scenario and read
   [reconfig.execute] span durations out of the tracer instead of the
   harness's own stopwatch. The full trace is dumped as JSONL for the
   CI artifact. *)

open Flexbpf.Builder

let trace_file = "BENCH_e15_trace.jsonl"

(* -- part 1: hot-path overhead ------------------------------------------ *)

let mk_device () =
  let dev = Targets.Device.create ~id:"d0" Targets.Arch.drmt in
  let prog = Apps.L2l3.program () in
  List.iteri
    (fun i el -> ignore (Targets.Device.install dev ~ctx:prog ~order:i el))
    prog.Flexbpf.Ast.pipeline;
  Flexbpf.Interp.install_rule (Targets.Device.env dev) "ipv4_lpm"
    (Apps.L2l3.route_rule ~host_id:2 ~port:1);
  dev

let mk_packet () =
  Netsim.Packet.create
    [ Netsim.Packet.ethernet ~src:1L ~dst:2L ();
      Netsim.Packet.ipv4 ~src:1L ~dst:2L ();
      Netsim.Packet.tcp ~sport:100L ~dport:200L () ]

let time_exec dev ~iters =
  let pkt = mk_packet () in
  (* warmup compiles the program and resolves the cached obs handle *)
  for _ = 1 to 10_000 do
    ignore (Targets.Device.exec dev ~now_us:0L pkt)
  done;
  let t0 = Sys.time () in
  for _ = 1 to iters do
    ignore (Targets.Device.exec dev ~now_us:0L pkt)
  done;
  ((Sys.time () -. t0) /. float_of_int iters) *. 1e9

let overhead_rows () =
  let iters = 1_000_000 in
  let bare = mk_device () in
  let instrumented = mk_device () in
  Targets.Device.set_obs instrumented (Some (Obs.Scope.create ()));
  let ns_bare = time_exec bare ~iters in
  let ns_instr = time_exec instrumented ~iters in
  let overhead = (ns_instr -. ns_bare) /. ns_bare in
  [ [ "compiled exec, no obs"; Report.f1 ns_bare; "-" ];
    [ "compiled exec, obs scope"; Report.f1 ns_instr; Report.pct overhead ] ]

(* -- part 2: reconfig durations from the trace -------------------------- *)

let traced_reconfig mode =
  let sim, _topo, h0, h1, devs, wireds, received = Common.wired_linear () in
  let sent = ref 0 in
  let gen = Netsim.Traffic.create sim in
  Netsim.Traffic.cbr gen ~rate_pps:10_000. ~start:0. ~stop:2.0 ~send:(fun () ->
      incr sent;
      Netsim.Node.send h0 ~port:0
        (Common.h0_h1_packet ~h0:h0.Netsim.Node.id ~h1:h1.Netsim.Node.id
           ~born:(Netsim.Sim.now sim)));
  let counter = block "cnt" [ map_incr "hits" [ const 0 ] ] in
  let prog =
    program "p" ~maps:[ map_decl ~key_arity:1 ~size:4 "hits" ] [ counter ]
  in
  let plan =
    Compiler.Plan.v "add"
      [ Compiler.Plan.Install
          { device = "s1"; element = counter; ctx = prog; order = 0 } ]
  in
  Netsim.Sim.at sim 1.0 (fun () ->
      Runtime.Reconfig.execute ~sim ~mode ~wireds ~devices:devs plan);
  ignore (Netsim.Sim.run sim);
  (Obs.Scope.trace (Netsim.Sim.obs sim), !sent, !received)

let attr span key =
  match List.assoc_opt key span.Obs.Trace.attrs with
  | Some (Obs.Trace.S s) -> s
  | Some (Obs.Trace.I i) -> string_of_int i
  | Some (Obs.Trace.F f) -> Printf.sprintf "%g" f
  | Some (Obs.Trace.B b) -> string_of_bool b
  | None -> "-"

let reconfig_rows () =
  let hitless_rows =
    List.concat_map
      (fun mode ->
        let tr, sent, received = traced_reconfig mode in
        (match mode with
         | Runtime.Reconfig.Hitless ->
           Out_channel.with_open_text trace_file (fun oc ->
               Out_channel.output_string oc (Obs.Export.trace_jsonl tr))
         | Runtime.Reconfig.Drain -> ());
        List.map
          (fun span ->
            let d = Obs.Trace.duration span in
            [ attr span "mode"; attr span "plan"; attr span "attempts";
              Report.f3 d;
              (if d < 1.0 then "yes" else "NO");
              Report.i (sent - received) ])
          (Obs.Trace.by_name tr "reconfig.execute"))
      [ Runtime.Reconfig.Hitless; Runtime.Reconfig.Drain ]
  in
  hitless_rows

let run () =
  Report.print ~id:"E15" ~title:"observability: hot-path instrumentation cost"
    ~claim:
      "registry counter handles keep per-packet instrumentation overhead \
       within a few percent of the uninstrumented compiled path"
    ~header:[ "path"; "ns/op"; "overhead" ]
    (overhead_rows ());
  Report.print ~id:"E15"
    ~title:"observability: reconfig durations re-derived from the span trace"
    ~claim:
      "the trace alone re-verifies E1: hitless runtime reconfiguration \
       completes sub-second (drain-and-reflash does not)"
    ~header:[ "mode"; "plan"; "attempts"; "duration(s)"; "sub-second"; "lost" ]
    (reconfig_rows ());
  Printf.printf "trace written to %s\n" trace_file
