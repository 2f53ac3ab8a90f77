(* A leaf-spine fabric of runtime-programmable switches: ECMP spreads
   traffic across spines by default; at runtime the operator injects a
   weighted load-balancer program on a leaf to steer traffic (e.g. to
   drain a spine before maintenance), then removes it — classic
   traffic engineering as a runtime program change.

   Run with: dune exec examples/fabric.exe *)

let pf fmt = Format.printf fmt

let () =
  pf "== Leaf-spine fabric ==@.@.";
  let sim = Netsim.Sim.create () in
  let built =
    Netsim.Topology.leaf_spine ~sim ~spines:4 ~leaves:4 ~hosts_per_leaf:2 ()
  in
  let topo = built.Netsim.Topology.topo in
  let spines = List.filteri (fun i _ -> i < 4) built.Netsim.Topology.switch_list in
  let leaves = List.filteri (fun i _ -> i >= 4) built.Netsim.Topology.switch_list in
  (* wire every switch with a dRMT device *)
  let wire sw = Runtime.Wiring.attach topo sw
      (Targets.Device.create ~id:sw.Netsim.Node.name Targets.Arch.drmt)
  in
  let spine_wireds = List.map wire spines in
  let _leaf_wireds = List.map wire leaves in
  let hosts = built.Netsim.Topology.host_list in
  let received = Array.make (List.length hosts) 0 in
  List.iteri
    (fun i h ->
      Netsim.Node.set_handler h (fun _ ~in_port:_ _ ->
          received.(i) <- received.(i) + 1))
    hosts;
  (* traffic: hosts on leaf0 (h0, h1) send to hosts on other leaves *)
  let senders = [ List.nth hosts 0; List.nth hosts 1 ] in
  let remotes = List.filteri (fun i _ -> i >= 2) hosts in
  let rng = Random.State.make [| 12 |] in
  let gen = Netsim.Traffic.create sim in
  let send_one () =
    let src = List.nth senders (Random.State.int rng 2) in
    let dst = List.nth remotes (Random.State.int rng (List.length remotes)) in
    let pkt =
      Netsim.Traffic.tcp_packet ~src:src.Netsim.Node.id ~dst:dst.Netsim.Node.id
        ~sport:(1024 + Random.State.int rng 50000)
        ~dport:80 ~born:(Netsim.Sim.now sim) ()
    in
    Netsim.Node.send src ~port:0 pkt
  in
  Netsim.Traffic.cbr gen ~rate_pps:4000. ~start:0. ~stop:3.0 ~send:send_one;

  let spine_counts () =
    List.map
      (fun w -> w.Runtime.Wiring.node.Netsim.Node.rx_packets)
      spine_wireds
  in
  let snapshot = ref (List.map (fun _ -> 0) spine_wireds) in
  let report label =
    let now = spine_counts () in
    let delta = List.map2 ( - ) now !snapshot in
    snapshot := now;
    pf "  %-28s spine loads: %a@." label
      Fmt.(list ~sep:(any " / ") int)
      delta
  in

  (* phase 1: plain ECMP *)
  Netsim.Sim.at sim 1.0 (fun () -> report "ECMP (default)");

  (* phase 2: inject the weighted LB on leaf0 at runtime — drain
     spine3, send 60% via spine0 *)
  let leaf0_dev = (List.nth _leaf_wireds 0).Runtime.Wiring.device in
  Netsim.Sim.at sim 1.0 (fun () ->
      let prog = Apps.Load_balancer.program () in
      List.iteri
        (fun i el ->
          match Targets.Device.install leaf0_dev ~ctx:prog ~order:i el with
          | Ok _ -> ()
          | Error r -> failwith (Targets.Resource.reject_to_string r))
        prog.Flexbpf.Ast.pipeline;
      (* leaf0's spine-facing ports are 0..3 (wired to spines first) *)
      List.iter
        (Flexbpf.Interp.install_rule (Targets.Device.env leaf0_dev) "lb_select")
        (Apps.Load_balancer.weight_rules [ (0, 6); (1, 2); (2, 2); (3, 0) ]);
      pf "  t=1.0s: weighted LB injected on leaf0 (60/20/20/0, draining spine3)@.");
  Netsim.Sim.at sim 2.0 (fun () -> report "weighted LB (drain spine3)");

  (* phase 3: remove the LB — back to ECMP *)
  Netsim.Sim.at sim 2.0 (fun () ->
      let prog = Apps.Load_balancer.program () in
      List.iter
        (fun el ->
          ignore (Targets.Device.uninstall leaf0_dev (Flexbpf.Ast.element_name el)))
        prog.Flexbpf.Ast.pipeline;
      pf "  t=2.0s: LB removed — spine3 back in service@.");
  Netsim.Sim.at sim 3.0 (fun () -> report "ECMP again");

  ignore (Netsim.Sim.run sim);
  let total = Array.fold_left ( + ) 0 received in
  pf "@.delivered %d packets end-to-end across the fabric@." total;
  assert (total > 11_000);
  pf "@.fabric OK@."
