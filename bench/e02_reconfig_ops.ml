(* E2 — Reconfiguration primitives per architecture class (§2).

   "While keeping the device live, match/action tables can be added and
   removed on the fly ... parser states can be similarly manipulated ...
   program changes complete within a second." Measured: the modelled
   time of each runtime op per architecture, the full-reflash baseline,
   and a consistency check that packets only ever observe the old xor
   the new program version during a live change. *)

open Flexbpf.Builder

let consistency_check arch =
  (* drive packets through a device while adding a table; collect epochs *)
  let sim, _topo, h0, h1, devs, wireds, _ = Common.wired_linear ~arch ~switches:1 () in
  let dev = List.hd devs in
  let t0 = Common.exact_table ~size:16 "t0" in
  let prog0 = program "p0" [ t0 ] in
  ignore (Targets.Device.install dev ~ctx:prog0 ~order:0 t0);
  let v_old = Targets.Device.version dev in
  let epochs = ref [] in
  Netsim.Node.set_handler h1 (fun _ ~in_port:_ pkt ->
      epochs := pkt.Netsim.Packet.epoch :: !epochs);
  let gen = Netsim.Traffic.create sim in
  Netsim.Traffic.cbr gen ~rate_pps:5000. ~start:0. ~stop:0.4 ~send:(fun () ->
      Netsim.Node.send h0 ~port:0
        (Common.h0_h1_packet ~h0:h0.Netsim.Node.id ~h1:h1.Netsim.Node.id
           ~born:(Netsim.Sim.now sim)));
  let t1 = Common.exact_table ~size:16 "t1" in
  let prog1 = program "p1" [ t0; t1 ] in
  Netsim.Sim.at sim 0.2 (fun () ->
      Runtime.Reconfig.execute ~sim ~mode:Runtime.Reconfig.Hitless ~wireds
        ~devices:devs
        (Compiler.Plan.v "add"
           [ Compiler.Plan.Install
               { device = Targets.Device.id dev; element = t1; ctx = prog1; order = 1 } ]));
  ignore (Netsim.Sim.run sim);
  let v_new = Targets.Device.version dev in
  List.for_all (fun e -> e = v_old || e = v_new) !epochs

let run () =
  let archs =
    [ ("rmt (drain-only)", Targets.Arch.rmt);
      ("rmt+runtime", Targets.Arch.rmt_runtime);
      ("drmt/spectrum", Targets.Arch.drmt);
      ("tiles/trident4", Targets.Arch.tiles);
      ("elastic/jericho2", Targets.Arch.elastic_pipe);
      ("smartnic", Targets.Arch.smartnic);
      ("fpga", Targets.Arch.fpga);
      ("host-ebpf", Targets.Arch.host_ebpf) ]
  in
  let rows =
    List.map
      (fun (label, profile) ->
        let r = profile.Targets.Arch.reconfig in
        let consistent =
          if r.Targets.Arch.hitless then
            if consistency_check profile.Targets.Arch.kind then "old-xor-new"
            else "VIOLATED"
          else "n/a (drains)"
        in
        [ label;
          Report.ms r.Targets.Arch.t_add_table;
          Report.ms r.Targets.Arch.t_remove_table;
          Report.ms r.Targets.Arch.t_parser_change;
          Report.f1 r.Targets.Arch.t_full_reflash;
          (if r.Targets.Arch.hitless then "yes" else "no");
          consistent ])
      archs
  in
  Report.print ~id:"E2" ~title:"runtime reconfiguration primitives by architecture"
    ~claim:
      "table and parser changes complete within a second on runtime-programmable \
       targets, vs tens of seconds for a full reflash; during a change every \
       packet is processed by the old or the new program, consistently"
    ~header:
      [ "architecture"; "add-tbl(ms)"; "rm-tbl(ms)"; "parser(ms)";
        "reflash(s)"; "hitless"; "consistency" ]
    rows
