(* Failure-injection tests: link failures, device failures with
   replication failover, controller-node failures, and data-plane
   runtime faults. The system must degrade predictably and recover. *)

open Flexbpf.Builder

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* -- Link flaps: the transport retransmits across an outage ------------- *)

let test_transport_survives_link_flap () =
  let sim = Netsim.Sim.create () in
  (* 10 Mbps bottleneck so the 300-packet flow spans the outage *)
  let built = Netsim.Topology.linear ~sim ~switches:2 ~link_bandwidth:1e7 () in
  let topo = built.Netsim.Topology.topo in
  List.iter
    (fun sw -> Netsim.Node.set_handler sw (Netsim.Topology.forwarding_handler topo))
    built.Netsim.Topology.switch_list;
  let h0 = List.nth built.Netsim.Topology.host_list 0 in
  let h1 = List.nth built.Netsim.Topology.host_list 1 in
  let stack = Netsim.Transport.create ~rto:0.03 sim in
  ignore (Netsim.Transport.attach stack h0 ());
  ignore (Netsim.Transport.attach stack h1 ());
  let flow =
    Netsim.Transport.start_flow stack ~src:h0.Netsim.Node.id
      ~dst:h1.Netsim.Node.id ~packets:300 ()
  in
  (* cut the h0 uplink from t=0.05 to t=0.25 *)
  let link = Option.get (Netsim.Node.link h0 ~port:0) in
  Netsim.Sim.at sim 0.05 (fun () -> Netsim.Link.set_up link false);
  Netsim.Sim.at sim 0.25 (fun () -> Netsim.Link.set_up link true);
  ignore (Netsim.Sim.run ~until:30. sim);
  check_int "flow completes despite outage" 300 flow.Netsim.Transport.acked;
  check "losses were retransmitted" true (flow.Netsim.Transport.retransmits > 0)

(* -- Device failure with replication failover ---------------------------- *)

let counting_device id =
  let dev = Targets.Device.create ~id Targets.Arch.drmt in
  let b = block "cnt" [ map_incr "state" [ field "ipv4" "src" ] ] in
  let prog = program "p" ~maps:[ map_decl ~key_arity:1 ~size:256 "state" ] [ b ] in
  ignore (Targets.Device.install dev ~ctx:prog ~order:0 b);
  dev

let test_failover_under_traffic () =
  let sim = Netsim.Sim.create () in
  let primary = counting_device "primary" in
  let backup = counting_device "backup" in
  let group =
    Control.Replication.create ~sim ~map_name:"state" ~primary
      ~backups:[ backup ] (Control.Replication.Periodic_sync 0.05)
  in
  (* traffic is steered through the replication group's primary — the
     handle pattern the controller uses for stateful apps *)
  let rng = Random.State.make [| 8 |] in
  let gen = Netsim.Traffic.create sim in
  let applied = ref 0 in
  Netsim.Traffic.cbr gen ~rate_pps:2_000. ~start:0. ~stop:1.0 ~send:(fun () ->
      let s = Int64.of_int (Random.State.int rng 40) in
      let pkt =
        Netsim.Packet.create
          [ Netsim.Packet.ethernet ~src:s ~dst:1L ();
            Netsim.Packet.ipv4 ~src:s ~dst:1L ();
            Netsim.Packet.tcp ~sport:1L ~dport:2L () ]
      in
      incr applied;
      ignore
        (Targets.Device.exec
           (Control.Replication.primary group)
           ~now_us:(Int64.of_float (Netsim.Sim.now sim *. 1e6))
           pkt));
  (* primary dies at t=0.5; failover promotes the backup *)
  let lost_bound = ref 0 in
  Netsim.Sim.at sim 0.5 (fun () ->
      Targets.Device.set_power primary false;
      (* staleness at the instant of failure bounds the loss *)
      lost_bound := Control.Replication.staleness group backup;
      ignore (Control.Replication.failover group));
  Netsim.Sim.at sim 1.1 (fun () -> Control.Replication.stop group);
  ignore (Netsim.Sim.run ~until:1.2 sim);
  let final = Control.Replication.primary group in
  Alcotest.(check string) "backup promoted" "backup" (Targets.Device.id final);
  let survived =
    Int64.to_int (Runtime.Migration.map_sum final "state")
  in
  check "loss bounded by one sync window" true
    (!applied - survived <= !lost_bound + 1);
  (* one 50ms window at 2kpps is at most ~100 updates + in-flight slack *)
  check "staleness small" true (!lost_bound <= 150);
  check "most updates survived" true (survived > !applied / 2)

(* -- Wired device goes down: packets drop, network recovers -------------- *)

let test_wired_device_outage_and_recovery () =
  let sim = Netsim.Sim.create () in
  let built = Netsim.Topology.linear ~sim ~switches:3 () in
  let topo = built.Netsim.Topology.topo in
  let h0 = List.nth built.Netsim.Topology.host_list 0 in
  let h1 = List.nth built.Netsim.Topology.host_list 1 in
  let wireds =
    List.map
      (fun sw ->
        Runtime.Wiring.attach topo sw
          (Targets.Device.create ~id:sw.Netsim.Node.name Targets.Arch.drmt))
      built.Netsim.Topology.switch_list
  in
  let received = ref 0 in
  Netsim.Node.set_handler h1 (fun _ ~in_port:_ _ -> incr received);
  let gen = Netsim.Traffic.create sim in
  let sent = ref 0 in
  Netsim.Traffic.cbr gen ~rate_pps:1000. ~start:0. ~stop:1.0 ~send:(fun () ->
      incr sent;
      Netsim.Node.send h0 ~port:0
        (Netsim.Traffic.tcp_packet ~src:h0.Netsim.Node.id
           ~dst:h1.Netsim.Node.id ~sport:5 ~dport:80
           ~born:(Netsim.Sim.now sim) ()));
  let w1 = List.nth wireds 1 in
  Netsim.Sim.at sim 0.3 (fun () -> Runtime.Wiring.set_online w1 false);
  Netsim.Sim.at sim 0.5 (fun () -> Runtime.Wiring.set_online w1 true);
  ignore (Netsim.Sim.run sim);
  let lost = !sent - !received in
  check "outage lost roughly the 200ms window" true (lost >= 150 && lost <= 250);
  check_int "losses accounted as drops" lost (Runtime.Wiring.drain_drops w1)

(* -- Raft: safety across repeated failures -------------------------------- *)

let test_raft_single_leader_per_term () =
  let sim = Netsim.Sim.create () in
  let raft = Control.Raft.create ~seed:7 ~sim ~n:5 () in
  let violation = ref false in
  (* sample leadership every 10ms; two alive leaders in the same term is
     a safety violation *)
  Netsim.Sim.every sim ~period:0.01 (fun () ->
      let leaders = ref [] in
      for i = 0 to 4 do
        let nd = Control.Raft.node raft i in
        if nd.Control.Raft.alive && nd.Control.Raft.role = Control.Raft.Leader
        then leaders := nd.Control.Raft.current_term :: !leaders
      done;
      let sorted = List.sort compare !leaders in
      let rec dup = function
        | a :: (b :: _ as rest) -> a = b || dup rest
        | _ -> false
      in
      if dup sorted then violation := true;
      Netsim.Sim.now sim < 9.9);
  (* churn: kill and revive nodes on a schedule *)
  List.iteri
    (fun i t ->
      Netsim.Sim.at sim t (fun () ->
          let victim = i mod 5 in
          Control.Raft.kill raft victim;
          Netsim.Sim.after sim 0.8 (fun () -> Control.Raft.revive raft victim)))
    [ 1.0; 2.5; 4.0; 5.5; 7.0 ];
  ignore (Netsim.Sim.run ~until:10.0 sim);
  check "never two leaders in one term" false !violation;
  check "cluster recovered a leader" true (Control.Raft.leader raft <> None)

let test_raft_logs_agree_on_prefix () =
  let sim = Netsim.Sim.create () in
  let raft = Control.Raft.create ~seed:13 ~sim ~n:3 () in
  let applied : (int, string list ref) Hashtbl.t = Hashtbl.create 3 in
  Control.Raft.set_on_apply raft (fun node cmd ->
      let l =
        match Hashtbl.find_opt applied node with
        | Some l -> l
        | None ->
          let l = ref [] in
          Hashtbl.replace applied node l;
          l
      in
      l := cmd :: !l);
  let gen = Netsim.Traffic.create sim in
  let n = ref 0 in
  Netsim.Traffic.cbr gen ~rate_pps:20. ~start:1.0 ~stop:6.0 ~send:(fun () ->
      incr n;
      ignore (Control.Raft.propose raft (Printf.sprintf "op%d" !n)));
  (* a follower crashes and recovers mid-stream *)
  Netsim.Sim.at sim 3.0 (fun () ->
      match Control.Raft.leader raft with
      | Some l -> Control.Raft.kill raft ((l.Control.Raft.id + 1) mod 3)
      | None -> ());
  Netsim.Sim.at sim 4.5 (fun () ->
      for i = 0 to 2 do
        let nd = Control.Raft.node raft i in
        if not nd.Control.Raft.alive then Control.Raft.revive raft i
      done);
  ignore (Netsim.Sim.run ~until:9.0 sim);
  (* every pair of nodes agrees on the common prefix of applied cmds *)
  let lists =
    List.filter_map (fun i -> Hashtbl.find_opt applied i) [ 0; 1; 2 ]
    |> List.map (fun l -> List.rev !l)
  in
  check "all nodes applied something" true (List.length lists = 3);
  let rec prefix_agree a b =
    match a, b with
    | x :: xs, y :: ys -> x = y && prefix_agree xs ys
    | _, [] | [], _ -> true
  in
  let agree =
    match lists with
    | [ a; b; c ] -> prefix_agree a b && prefix_agree b c && prefix_agree a c
    | _ -> false
  in
  check "applied sequences agree on common prefix" true agree

(* -- Data-plane runtime faults are contained ------------------------------ *)

let test_runtime_fault_containment () =
  (* a buggy tenant block that reads an absent header: its packets are
     dropped and counted, but the device keeps forwarding other traffic *)
  let sim = Netsim.Sim.create () in
  let built = Netsim.Topology.linear ~sim ~switches:1 () in
  let topo = built.Netsim.Topology.topo in
  let h0 = List.nth built.Netsim.Topology.host_list 0 in
  let h1 = List.nth built.Netsim.Topology.host_list 1 in
  let dev = Targets.Device.create ~id:"s0" Targets.Arch.drmt in
  ignore (Runtime.Wiring.attach topo (List.hd built.Netsim.Topology.switch_list) dev);
  let received = ref 0 in
  Netsim.Node.set_handler h1 (fun _ ~in_port:_ _ -> incr received);
  let buggy =
    block "buggy" [ when_ (field "ipv4" "proto" =: const 17) [ set_meta "x" (field "vlan" "vid") ] ]
  in
  let prog = program "p" [ buggy ] in
  ignore (Targets.Device.install dev ~ctx:prog ~order:0 buggy);
  (* udp packet without vlan triggers the fault; tcp passes *)
  let udp =
    Netsim.Packet.create
      [ Netsim.Packet.ethernet ~src:1L ~dst:(Int64.of_int h1.Netsim.Node.id) ();
        Netsim.Packet.ipv4 ~src:1L ~dst:(Int64.of_int h1.Netsim.Node.id) ~proto:17L ();
        Netsim.Packet.udp ~sport:1L ~dport:2L () ]
  in
  Netsim.Node.send h0 ~port:0 udp;
  Netsim.Node.send h0 ~port:0
    (Netsim.Traffic.tcp_packet ~src:1 ~dst:h1.Netsim.Node.id ~sport:1 ~dport:2
       ~born:0. ());
  ignore (Netsim.Sim.run sim);
  check_int "healthy traffic unaffected" 1 !received;
  check_int "fault counted" 1
    (Obs.Metrics.get_counter
       (Targets.Device.env dev).Flexbpf.Interp.stats "runtime.error")

let () =
  Alcotest.run "failures"
    [ ( "links",
        [ Alcotest.test_case "transport survives flap" `Quick
            test_transport_survives_link_flap ] );
      ( "devices",
        [ Alcotest.test_case "replication failover" `Quick
            test_failover_under_traffic;
          Alcotest.test_case "wired outage+recovery" `Quick
            test_wired_device_outage_and_recovery ] );
      ( "raft",
        [ Alcotest.test_case "single leader per term" `Slow
            test_raft_single_leader_per_term;
          Alcotest.test_case "log prefix agreement" `Quick
            test_raft_logs_agree_on_prefix ] );
      ( "dataplane",
        [ Alcotest.test_case "fault containment" `Quick
            test_runtime_fault_containment ] ) ]
