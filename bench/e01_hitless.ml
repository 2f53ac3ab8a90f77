(* E1 — Hitless runtime reconfiguration vs drain-and-reflash (§1, §2).

   10k pps of CBR through a 3-switch path; at t=1s the middle switch
   gets a new program element. Runtime-programmable mode reconfigures
   hitlessly; the compile-time baseline isolates the device (drain),
   reflashes, and redeploys. *)

open Flexbpf.Builder

let run_mode mode =
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
      [ Compiler.Plan.Install { device = "s1"; element = counter; ctx = prog; order = 0 } ]
  in
  let duration = ref 0. in
  Netsim.Sim.at sim 1.0 (fun () ->
      Runtime.Reconfig.execute ~sim ~mode ~wireds ~devices:devs plan
        ~on_done:(fun o ->
          duration := o.Runtime.Reconfig.finished_at -. o.Runtime.Reconfig.started_at));
  ignore (Netsim.Sim.run sim);
  let lost = !sent - !received in
  (!sent, !received, lost, !duration)

let run () =
  let hitless = run_mode Runtime.Reconfig.Hitless in
  let drain = run_mode Runtime.Reconfig.Drain in
  let row label (sent, received, lost, duration) =
    [ label; Report.i sent; Report.i received; Report.i lost;
      Report.f2 duration ]
  in
  Report.print ~id:"E1" ~title:"hitless reconfiguration vs drain-and-reflash"
    ~claim:
      "runtime reprogramming keeps the data plane live (zero loss, sub-second); \
       the compile-time path drains and reflashes (heavy loss, tens of seconds)"
    ~header:[ "mode"; "sent"; "delivered"; "lost"; "duration(s)" ]
    [ row "hitless (runtime)" hitless; row "drain+reflash" drain ]
