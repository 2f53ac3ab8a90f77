(* Real-time security (§1.1): a SYN flood ramps up; the controller
   summons a defense into the network on the fly, scales it out with
   attack volume, and retires it when the attack subsides — no
   persistent footprint.

   Run with: dune exec examples/ddos_defense.exe *)

let pf fmt = Format.printf fmt

let () =
  pf "== Elastic DDoS defense ==@.@.";
  let net = Flexnet.create ~arch:Targets.Arch.Drmt ~switches:3 () in
  (match Flexnet.deploy_infrastructure net with
   | Ok _ -> ()
   | Error e -> failwith e);
  let sim = Flexnet.sim net in
  let h0 = Flexnet.h0 net and h1 = Flexnet.h1 net in
  let switches = Flexnet.switch_devices net in

  (* legitimate client: established, sends a trickle of SYNs (reconnects) *)
  let legit_delivered = ref 0 in
  let syn_arrivals = ref 0 in
  Netsim.Node.set_handler h1 (fun _ ~in_port:_ pkt ->
      let flags =
        Option.value (Netsim.Packet.field pkt "tcp" "flags") ~default:0L
      in
      if Int64.logand flags Netsim.Packet.tcp_flag_syn <> 0L then begin
        incr syn_arrivals;
        if Netsim.Packet.field pkt "ipv4" "src" = Some 5L then
          incr legit_delivered
      end);
  let gen = Netsim.Traffic.create sim in
  let legit_sent = ref 0 in
  Netsim.Traffic.cbr gen ~rate_pps:20. ~start:0. ~stop:8.0 ~send:(fun () ->
      incr legit_sent;
      let pkt =
        Netsim.Traffic.tcp_packet ~flags:Netsim.Packet.tcp_flag_syn ~src:5
          ~dst:h1.Netsim.Node.id ~sport:1000 ~dport:80
          ~born:(Netsim.Sim.now sim) ()
      in
      Netsim.Node.send h0 ~port:0 pkt);
  (* mark the legit client as established on every switch's defense (it
     completed handshakes before the trace starts) *)
  let establish dev =
    match Targets.Device.map_state dev "established" with
    | Some st -> Flexbpf.State.put st [| 5L; Int64.of_int h1.Netsim.Node.id |] 1L
    | None -> ()
  in

  (* the attack: spoofed SYN flood ramping 0 -> 20k pps -> 0 *)
  let attack_gen = Netsim.Traffic.create ~seed:99 sim in
  Netsim.Traffic.ramp attack_gen ~peak_pps:20_000. ~start:1.0 ~ramp_up:1.5
    ~hold:2.0 ~ramp_down:1.5 ~send:(fun () ->
      Netsim.Node.send h0 ~port:0
        (Netsim.Traffic.spoofed_syn attack_gen ~dst:h1.Netsim.Node.id
           ~dport:80 ~born:(Netsim.Sim.now sim)));

  (* defense replica management: replica i lives on switch i; churn
     goes through the controller, i.e. every inject/retire is an
     install/remove plan executed by the reconfiguration engine *)
  let defense_prog = Apps.Syn_defense.program ~threshold:100 () in
  let controller = Flexnet.controller net in
  let uri = Control.Uri.v ~owner:"infra" "syn-defense" in
  ignore
    (Control.Controller.register_app controller ~uri
       ~kind:Control.Controller.Utility ~program:defense_prog ~replicas:[]);
  let replicas = ref 0 in
  (* scrub totals survive replica retirement *)
  let scrubbed_acc = ref 0 in
  let live_scrubbed () =
    List.fold_left
      (fun acc d -> acc + Int64.to_int (Apps.Syn_defense.dropped_count d))
      0 switches
  in
  let actuate =
    Control.Elastic.app_actuator
      ~on_inject:(fun dev ->
        establish dev;
        pf "  t=%.2fs: defense replica injected on %s@." (Netsim.Sim.now sim)
          (Targets.Device.id dev))
      ~on_retire:(fun dev ->
        scrubbed_acc :=
          !scrubbed_acc + Int64.to_int (Apps.Syn_defense.dropped_count dev);
        pf "  t=%.2fs: defense replica retired from %s@." (Netsim.Sim.now sim)
          (Targets.Device.id dev))
      ~controller ~uri ~devices:switches ()
  in
  let scale_to n =
    let n = min n (List.length switches) in
    actuate n;
    replicas := n
  in

  (* offered SYN load, measured in the data plane when the defense is
     up (per-window counters), at the victim otherwise *)
  let last_victim_syns = ref 0 in
  let sample () =
    let now_us = Int64.of_float (Netsim.Sim.now sim *. 1e6) in
    if !replicas > 0 then
      Int64.to_float
        (Apps.Syn_defense.syn_rate_of (List.hd switches)
           ~dst:(Int64.of_int h1.Netsim.Node.id) ~now_us)
      *. 10. (* 100ms windows -> pps *)
    else begin
      let delta = !syn_arrivals - !last_victim_syns in
      last_victim_syns := !syn_arrivals;
      float_of_int delta *. 10.
    end
  in
  let _policy =
    Control.Elastic.create ~sim ~name:"syn-defense" ~min_replicas:0
      ~max_replicas:3 ~cooldown:0.3 ~period:0.1 ~sample
      ~capacity_per_replica:8000. ~scale_to ()
  in

  (* timeline *)
  pf "%-8s %-12s %-10s %-14s@." "time" "offered-pps" "replicas" "scrubbed-total";
  Netsim.Sim.every sim ~period:0.5 (fun () ->
      pf "%-8.2f %-12.0f %-10d %-14d@." (Netsim.Sim.now sim) (sample ())
        !replicas
        (!scrubbed_acc + live_scrubbed ());
      Netsim.Sim.now sim < 7.9);

  Flexnet.run net ~until:8.5;

  (* attack summary via the unified registry: fold the scenario's own
     outcomes in next to what the stack recorded on its own
     (elastic.scale_events, device reconfigs, link counters), and let
     the exporter render one deterministic table *)
  let total_scrubbed = !scrubbed_acc + live_scrubbed () in
  let metrics = Obs.Scope.metrics (Flexnet.obs net) in
  Obs.Metrics.incr metrics ~by:total_scrubbed "ddos.scrubbed";
  Obs.Metrics.incr metrics ~by:(!syn_arrivals - !legit_delivered)
    "ddos.victim_syns";
  Obs.Metrics.incr metrics ~by:!legit_delivered "ddos.legit_delivered";
  Obs.Metrics.incr metrics ~by:!legit_sent "ddos.legit_sent";
  Obs.Metrics.set_gauge metrics "ddos.final_replicas" (float_of_int !replicas);
  pf "@.attack summary (obs registry, ddos.* and elastic.*):@.";
  List.iter
    (fun line ->
      if
        String.starts_with ~prefix:"ddos." line
        || String.starts_with ~prefix:"elastic." line
        || String.starts_with ~prefix:"metric" line
      then pf "  %s@." line)
    (String.split_on_char '\n' (Obs.Export.metrics_table metrics));
  assert (!replicas = 0);
  assert (total_scrubbed > 0);
  assert (Obs.Metrics.get_counter metrics "ddos.scrubbed" > 0);
  pf "@.ddos defense OK@."
