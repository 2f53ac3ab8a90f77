(* Tests for the FlexBPF application library. *)

open Flexbpf

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)

let tcp_pkt ?(flags = 0L) ~src ~dst ?(sport = 100L) ?(dport = 200L) () =
  Netsim.Packet.create
    [ Netsim.Packet.ethernet ~src ~dst ();
      Netsim.Packet.ipv4 ~src ~dst ();
      Netsim.Packet.tcp ~sport ~dport ~flags () ]

let env_of prog = Interp.create_env prog

(* -- L2/L3 ------------------------------------------------------------------ *)

let test_l2l3_certifies () =
  check "infrastructure program certifies" true
    (Result.is_ok (Analysis.certify (Apps.L2l3.program ())))

let test_l2l3_routing_and_ttl () =
  let prog = Apps.L2l3.program () in
  let env = env_of prog in
  Interp.install_rule env "ipv4_lpm" (Apps.L2l3.route_rule ~host_id:2 ~port:3);
  let pkt = tcp_pkt ~src:1L ~dst:2L () in
  let r = Interp.run env prog pkt in
  Alcotest.(check (option int)) "routed" (Some 3)
    r.Interp.verdict.Interp.egress;
  check_i64 "ttl decremented" 63L (Netsim.Packet.field_exn pkt "ipv4" "ttl")

let test_l2l3_unroutable_drops () =
  let prog = Apps.L2l3.program () in
  let env = env_of prog in
  let r = Interp.run env prog (tcp_pkt ~src:1L ~dst:9L ()) in
  check "no route -> drop" true r.Interp.verdict.Interp.dropped

let test_l2l3_acl_deny () =
  let prog = Apps.L2l3.program () in
  let env = env_of prog in
  Interp.install_rule env "ipv4_lpm" (Apps.L2l3.route_rule ~host_id:2 ~port:3);
  Interp.install_rule env "acl" (Apps.L2l3.acl_deny_rule ~src:1 ~dst:2);
  let r = Interp.run env prog (tcp_pkt ~src:1L ~dst:2L ()) in
  check "acl denies" true r.Interp.verdict.Interp.dropped;
  let r2 = Interp.run env prog (tcp_pkt ~src:5L ~dst:2L ()) in
  check "others pass" false r2.Interp.verdict.Interp.dropped

let test_l2l3_ttl_guard () =
  let prog = Apps.L2l3.program () in
  let env = env_of prog in
  Interp.install_rule env "ipv4_lpm" (Apps.L2l3.route_rule ~host_id:2 ~port:3);
  let pkt = tcp_pkt ~src:1L ~dst:2L () in
  Netsim.Packet.set_field pkt "ipv4" "ttl" 0L;
  let r = Interp.run env prog pkt in
  check "expired ttl dropped" true r.Interp.verdict.Interp.dropped

(* -- Firewall ------------------------------------------------------------------ *)

let test_firewall_statefulness () =
  let prog = Apps.Firewall.program ~owner:"t" ~boundary:100 () in
  (* run unnamespaced for direct state access *)
  let env = env_of prog in
  (* inbound before any outbound: denied *)
  let inbound = tcp_pkt ~src:200L ~dst:5L ~sport:80L ~dport:1234L () in
  let r1 = Interp.run env prog inbound in
  check "unsolicited inbound denied" true r1.Interp.verdict.Interp.dropped;
  (* outbound opens state *)
  let outbound = tcp_pkt ~src:5L ~dst:200L ~sport:1234L ~dport:80L () in
  let r2 = Interp.run env prog outbound in
  check "outbound passes" false r2.Interp.verdict.Interp.dropped;
  (* matching inbound now allowed *)
  let reply = tcp_pkt ~src:200L ~dst:5L ~sport:80L ~dport:1234L () in
  let r3 = Interp.run env prog reply in
  check "reply admitted" false r3.Interp.verdict.Interp.dropped;
  (* non-matching inbound still denied *)
  let other = tcp_pkt ~src:200L ~dst:5L ~sport:81L ~dport:1234L () in
  let r4 = Interp.run env prog other in
  check "other inbound still denied" true r4.Interp.verdict.Interp.dropped;
  check_i64 "denials counted" 2L (State.get (Interp.env_map env "fw_denied") [| 0L |])

(* -- Count-min sketch ------------------------------------------------------------ *)

let test_sketch_overestimates_never_under () =
  let cfg = { Apps.Cm_sketch.depth = 3; width = 256; map_name = "cms" } in
  let prog = Apps.Cm_sketch.program ~cfg () in
  let env = env_of prog in
  let exact = Apps.Cm_sketch.Exact.create () in
  let rng = Random.State.make [| 5 |] in
  for _ = 1 to 2000 do
    let src = Int64.of_int (Random.State.int rng 40) in
    let dst = Int64.of_int (Random.State.int rng 10) in
    ignore (Interp.run env prog (tcp_pkt ~src ~dst ()));
    Apps.Cm_sketch.Exact.add exact ~src ~dst ~proto:6L
  done;
  let st = Interp.env_map env "cms" in
  let ok = ref true in
  let total_err = ref 0 in
  for s = 0 to 39 do
    for d = 0 to 9 do
      let src = Int64.of_int s and dst = Int64.of_int d in
      let est =
        Int64.to_int (Apps.Cm_sketch.estimate cfg st ~src ~dst ~proto:6L)
      in
      let truth = Apps.Cm_sketch.Exact.count exact ~src ~dst ~proto:6L in
      if est < truth then ok := false;
      total_err := !total_err + (est - truth)
    done
  done;
  check "count-min never underestimates" true !ok;
  (* average overestimate should be small relative to traffic *)
  check "error bounded" true (!total_err < 2000)

let test_sketch_estimate_counts_exactly_when_sparse () =
  let cfg = { Apps.Cm_sketch.depth = 2; width = 512; map_name = "cms" } in
  let prog = Apps.Cm_sketch.program ~cfg () in
  let env = env_of prog in
  for _ = 1 to 17 do
    ignore (Interp.run env prog (tcp_pkt ~src:3L ~dst:4L ()))
  done;
  check_i64 "exact when no collisions" 17L
    (Apps.Cm_sketch.estimate cfg (Interp.env_map env "cms") ~src:3L ~dst:4L
       ~proto:6L)

(* -- Heavy hitter ------------------------------------------------------------------ *)

let test_heavy_hitter_punts () =
  let cfg = { Apps.Cm_sketch.depth = 2; width = 128; map_name = "cms" } in
  let prog = Apps.Heavy_hitter.program ~cfg ~threshold:100 ~report_every:64 () in
  let env = env_of prog in
  let punts = ref 0 in
  env.Interp.punt <- (fun d _ -> if d = Apps.Heavy_hitter.digest_name then incr punts);
  (* light flow: no reports *)
  for _ = 1 to 50 do
    ignore (Interp.run env prog (tcp_pkt ~src:1L ~dst:2L ()))
  done;
  check_int "no report below threshold" 0 !punts;
  (* heavy flow crosses threshold *)
  for _ = 1 to 1000 do
    ignore (Interp.run env prog (tcp_pkt ~src:7L ~dst:2L ()))
  done;
  check "heavy flow reported" true (!punts > 0);
  check "reporting rate bounded" true (!punts <= 1000 / 64 + 1)

(* -- SYN defense ------------------------------------------------------------------- *)

let syn ~src ~dst = tcp_pkt ~flags:Netsim.Packet.tcp_flag_syn ~src ~dst ()
let ack ~src ~dst = tcp_pkt ~flags:Netsim.Packet.tcp_flag_ack ~src ~dst ()

let test_syn_defense_engages () =
  let prog = Apps.Syn_defense.program ~threshold:50 () in
  let env = env_of prog in
  env.Interp.now_us <- 1000L;
  let dropped = ref 0 and alarms = ref 0 in
  env.Interp.punt <-
    (fun d _ -> if d = Apps.Syn_defense.alarm_digest then incr alarms);
  (* an established legitimate client *)
  ignore (Interp.run env prog (ack ~src:5L ~dst:9L));
  (* attack: 500 spoofed syns to dst 9 within one window *)
  for i = 1 to 500 do
    let r =
      Interp.run env prog (syn ~src:(Int64.of_int (1000 + i)) ~dst:9L)
    in
    if r.Interp.verdict.Interp.dropped then incr dropped
  done;
  check "mitigation engaged" true (!dropped > 400);
  check "first syns below threshold passed" true (!dropped < 500);
  check "alarms raised" true (!alarms > 0);
  (* established client's syn still passes (e.g. reconnect) *)
  let r = Interp.run env prog (syn ~src:5L ~dst:9L) in
  check "established client exempt" false r.Interp.verdict.Interp.dropped

let test_syn_defense_window_resets () =
  let prog = Apps.Syn_defense.program ~threshold:50 () in
  let env = env_of prog in
  env.Interp.now_us <- 0L;
  for i = 1 to 100 do
    ignore (Interp.run env prog (syn ~src:(Int64.of_int i) ~dst:9L))
  done;
  check "window 0 over threshold" true
    (State.get (Interp.env_map env "syn_rate") [| 9L; 0L |] > 50L);
  (* advance past the 100ms window: counters keyed by new window *)
  env.Interp.now_us <- 200_000L;
  let r = Interp.run env prog (syn ~src:4242L ~dst:9L) in
  check "new window starts clean" false r.Interp.verdict.Interp.dropped

(* -- Scrubber -------------------------------------------------------------------------- *)

let test_scrubber_blocklist () =
  let prog = Apps.Scrubber.program () in
  let env = env_of prog in
  Interp.install_rule env "scrub_blocklist" (Apps.Scrubber.block_rule ~src:666);
  let r = Interp.run env prog (tcp_pkt ~src:666L ~dst:1L ()) in
  check "blocked source dropped" true r.Interp.verdict.Interp.dropped;
  let r2 = Interp.run env prog (tcp_pkt ~src:7L ~dst:1L ()) in
  check "clean source passes" false r2.Interp.verdict.Interp.dropped;
  check_i64 "scrub counter" 1L (State.get (Interp.env_map env "scrubbed") [| 0L |])

(* -- Load balancer ----------------------------------------------------------------------- *)

let test_lb_weights () =
  let prog = Apps.Load_balancer.program () in
  let env = env_of prog in
  List.iter
    (Interp.install_rule env "lb_select")
    (Apps.Load_balancer.weight_rules [ (1, 3); (2, 1) ]);
  let counts = Hashtbl.create 4 in
  for i = 0 to 999 do
    let pkt = tcp_pkt ~src:(Int64.of_int i) ~dst:(Int64.of_int (i * 7)) () in
    let r = Interp.run env prog pkt in
    match r.Interp.verdict.Interp.egress with
    | Some p ->
      Hashtbl.replace counts p (1 + Option.value (Hashtbl.find_opt counts p) ~default:0)
    | None -> ()
  done;
  let c1 = Option.value (Hashtbl.find_opt counts 1) ~default:0 in
  let c2 = Option.value (Hashtbl.find_opt counts 2) ~default:0 in
  check "port1 gets ~3x port2" true (c1 > 2 * c2 && c2 > 0);
  check_int "all packets balanced" 1000 (c1 + c2)

let test_lb_weight_rules_cover_range () =
  let rules = Apps.Load_balancer.weight_rules [ (1, 1); (2, 1); (3, 2) ] in
  check_int "one rule per port" 3 (List.length rules);
  (* ranges must be disjoint and cover [0, 1000) *)
  let ranges =
    List.map
      (fun r ->
        match r.Ast.matches with
        | [ Ast.P_range (a, b) ] -> (Int64.to_int a, Int64.to_int b)
        | _ -> Alcotest.fail "expected range")
      rules
    |> List.sort compare
  in
  let rec contiguous lo = function
    | [] -> lo = 1000
    | (a, b) :: rest -> a = lo && contiguous (b + 1) rest
  in
  check "contiguous cover" true (contiguous 0 ranges)

(* -- NAT -------------------------------------------------------------------------------------- *)

let test_nat_rewrite_roundtrip () =
  let prog =
    Apps.Nat.program ~owner:"t" ~public:500 ~subnet_lo:10 ~subnet_hi:20 ()
  in
  let env = env_of prog in
  (* outbound: private 15 -> 99 *)
  let out = tcp_pkt ~src:15L ~dst:99L ~sport:1234L ~dport:80L () in
  ignore (Interp.run env prog out);
  check_i64 "source rewritten to public" 500L
    (Netsim.Packet.field_exn out "ipv4" "src");
  (* inbound reply: 99 -> public, restored to private *)
  let back = tcp_pkt ~src:99L ~dst:500L ~sport:80L ~dport:1234L () in
  ignore (Interp.run env prog back);
  check_i64 "destination restored" 15L (Netsim.Packet.field_exn back "ipv4" "dst")

let test_nat_leaves_others () =
  let prog =
    Apps.Nat.program ~owner:"t" ~public:500 ~subnet_lo:10 ~subnet_hi:20 ()
  in
  let env = env_of prog in
  let pkt = tcp_pkt ~src:50L ~dst:99L () in
  ignore (Interp.run env prog pkt);
  check_i64 "outside subnet untouched" 50L (Netsim.Packet.field_exn pkt "ipv4" "src")

(* -- Rate limiter -------------------------------------------------------------------------------- *)

let test_rate_limiter_polices () =
  let prog = Apps.Rate_limiter.program ~rate_pps:100 ~burst:10 () in
  let env = env_of prog in
  (* burst of 50 packets at the same instant: 10 pass (bucket), 40 drop *)
  env.Interp.now_us <- 1_000_000L;
  let passed = ref 0 in
  for _ = 1 to 50 do
    let r = Interp.run env prog (tcp_pkt ~src:7L ~dst:1L ()) in
    if not r.Interp.verdict.Interp.dropped then incr passed
  done;
  check_int "burst capped at bucket depth" 10 !passed;
  check_i64 "policed counted" 40L
    (State.get (Interp.env_map env "tb_policed") [| 0L |]);
  (* after one second at 100 pps, ~100 more tokens accumulated *)
  env.Interp.now_us <- 2_000_000L;
  let passed2 = ref 0 in
  for _ = 1 to 200 do
    let r = Interp.run env prog (tcp_pkt ~src:7L ~dst:1L ()) in
    if not r.Interp.verdict.Interp.dropped then incr passed2
  done;
  check "refill admits roughly rate x elapsed" true
    (!passed2 >= 9 && !passed2 <= 11);
  (* an unrelated source has its own bucket *)
  let r = Interp.run env prog (tcp_pkt ~src:8L ~dst:1L ()) in
  check "per-source isolation" false r.Interp.verdict.Interp.dropped

let test_rate_limiter_sustained_rate () =
  let prog = Apps.Rate_limiter.program ~rate_pps:1000 ~burst:5 () in
  let env = env_of prog in
  (* 1 kpps offered for 1 simulated second at 10 kpps: passes ~1000+burst *)
  let passed = ref 0 in
  for i = 0 to 9_999 do
    env.Interp.now_us <- Int64.of_int (i * 100) (* 10 kpps *);
    let r = Interp.run env prog (tcp_pkt ~src:3L ~dst:1L ()) in
    if not r.Interp.verdict.Interp.dropped then incr passed
  done;
  check "sustained rate enforced" true (!passed >= 950 && !passed <= 1100)

(* -- Telemetry ----------------------------------------------------------------------------------- *)

let test_telemetry_counts_and_stamps () =
  let prog = Apps.Telemetry.program () in
  let env = env_of prog in
  env.Interp.now_us <- 777L;
  let pkt = tcp_pkt ~src:1L ~dst:2L () in
  ignore (Interp.run env prog pkt);
  ignore (Interp.run env prog pkt);
  check_i64 "hop count accumulated" 2L (Netsim.Packet.meta_default pkt "hops" 0L);
  check_i64 "timestamp stamped" 777L
    (Netsim.Packet.meta_default pkt "last_hop_us" 0L);
  check_i64 "flow counted" 2L
    (State.get (Interp.env_map env "flow_bytes") [| 1L; 2L |])

(* -- Congestion control (interpreted FlexBPF) ----------------------------------------------------- *)

let test_cc_blocks_certify () =
  let prog =
    Apps.Congestion.program
      ~blocks:
        [ Apps.Congestion.reno_block; Apps.Congestion.dctcp_block;
          Apps.Congestion.timely_block () ]
      ()
  in
  check "cc suite certifies" true (Result.is_ok (Analysis.certify prog))

let test_reno_semantics () =
  let cc = Apps.Congestion.to_transport_cc Apps.Congestion.reno_block in
  (* growth without ECN *)
  let grown = cc.Netsim.Transport.on_ack ~cwnd:10. ~ecn:false ~rtt:0.001 in
  check "additive increase" true (grown > 10.);
  (* halving on ECN *)
  let cut = cc.Netsim.Transport.on_ack ~cwnd:10. ~ecn:true ~rtt:0.001 in
  Alcotest.(check (float 0.01)) "multiplicative decrease" 5. cut;
  (* floor at one packet *)
  let floored = cc.Netsim.Transport.on_ack ~cwnd:1.2 ~ecn:true ~rtt:0.001 in
  check "window floor" true (floored >= 1.)

let test_dctcp_proportional () =
  let cc = Apps.Congestion.to_transport_cc Apps.Congestion.dctcp_block in
  (* sustained ECN drives alpha up: cuts grow deeper over time *)
  let first_cut = 100. -. cc.Netsim.Transport.on_ack ~cwnd:100. ~ecn:true ~rtt:0.001 in
  let w = ref 100. in
  for _ = 1 to 30 do
    w := cc.Netsim.Transport.on_ack ~cwnd:100. ~ecn:true ~rtt:0.001
  done;
  let later_cut = 100. -. !w in
  check "cut deepens as alpha rises" true (later_cut > first_cut);
  (* a single mark after a calm period cuts much less than reno's half *)
  let calm = Apps.Congestion.to_transport_cc Apps.Congestion.dctcp_block in
  for _ = 1 to 50 do
    ignore (calm.Netsim.Transport.on_ack ~cwnd:100. ~ecn:false ~rtt:0.001)
  done;
  let gentle = calm.Netsim.Transport.on_ack ~cwnd:100. ~ecn:true ~rtt:0.001 in
  check "gentle cut when alpha small" true (gentle > 75.)

let test_timely_rtt_gradient () =
  let cc =
    Apps.Congestion.to_transport_cc (Apps.Congestion.timely_block ~t_low_us:50 ~t_high_us:500 ())
  in
  let up = cc.Netsim.Transport.on_ack ~cwnd:10. ~ecn:false ~rtt:20e-6 in
  check "low rtt grows" true (up > 10.);
  let down = cc.Netsim.Transport.on_ack ~cwnd:10. ~ecn:false ~rtt:1e-3 in
  check "high rtt shrinks" true (down < 10.);
  let hold = cc.Netsim.Transport.on_ack ~cwnd:10. ~ecn:false ~rtt:100e-6 in
  Alcotest.(check (float 0.001)) "band holds" 10. hold

let test_cc_live_swap_end_to_end () =
  (* hot-swapping the CC program on a congested path changes behavior:
     reno suffers ECN cuts, a deliberately ECN-blind block does not *)
  let run cc_block =
    let sim = Netsim.Sim.create () in
    let built =
      Netsim.Topology.linear ~sim ~switches:2 ~link_bandwidth:5e7
        ~queue_capacity:32 ~ecn_threshold:4 ()
    in
    let topo = built.Netsim.Topology.topo in
    List.iter
      (fun sw ->
        Netsim.Node.set_handler sw (Netsim.Topology.forwarding_handler topo))
      built.Netsim.Topology.switch_list;
    let h0 = List.nth built.Netsim.Topology.host_list 0 in
    let h1 = List.nth built.Netsim.Topology.host_list 1 in
    let stack = Netsim.Transport.create sim in
    ignore (Netsim.Transport.attach stack h0 ());
    ignore (Netsim.Transport.attach stack h1 ());
    Netsim.Transport.set_cc stack h0.Netsim.Node.id
      (Apps.Congestion.to_transport_cc cc_block);
    let flow =
      Netsim.Transport.start_flow stack ~src:h0.Netsim.Node.id
        ~dst:h1.Netsim.Node.id ~packets:400 ()
    in
    ignore (Netsim.Sim.run ~until:30. sim);
    (flow.Netsim.Transport.acked, flow.Netsim.Transport.retransmits)
  in
  let acked_reno, retx_reno = run Apps.Congestion.reno_block in
  let blind =
    Flexbpf.Builder.(block "cc_blind" [ set_meta "cwnd" (meta "cwnd" +: const 500) ])
  in
  let acked_blind, retx_blind = run blind in
  check_int "reno completes" 400 acked_reno;
  check_int "blind completes" 400 acked_blind;
  check_int "ECN-reactive reno avoids loss" 0 retx_reno;
  check "ECN-blind program overruns the queue" true (retx_blind > 20)

let () =
  Alcotest.run "apps"
    [ ( "l2l3",
        [ Alcotest.test_case "certifies" `Quick test_l2l3_certifies;
          Alcotest.test_case "routing+ttl" `Quick test_l2l3_routing_and_ttl;
          Alcotest.test_case "unroutable" `Quick test_l2l3_unroutable_drops;
          Alcotest.test_case "acl deny" `Quick test_l2l3_acl_deny;
          Alcotest.test_case "ttl guard" `Quick test_l2l3_ttl_guard ] );
      ( "firewall",
        [ Alcotest.test_case "stateful" `Quick test_firewall_statefulness ] );
      ( "cm_sketch",
        [ Alcotest.test_case "never underestimates" `Quick
            test_sketch_overestimates_never_under;
          Alcotest.test_case "sparse exact" `Quick
            test_sketch_estimate_counts_exactly_when_sparse ] );
      ( "heavy_hitter",
        [ Alcotest.test_case "punts" `Quick test_heavy_hitter_punts ] );
      ( "syn_defense",
        [ Alcotest.test_case "engages" `Quick test_syn_defense_engages;
          Alcotest.test_case "window resets" `Quick test_syn_defense_window_resets ] );
      ( "scrubber",
        [ Alcotest.test_case "blocklist" `Quick test_scrubber_blocklist ] );
      ( "load_balancer",
        [ Alcotest.test_case "weights" `Quick test_lb_weights;
          Alcotest.test_case "range cover" `Quick test_lb_weight_rules_cover_range ] );
      ( "nat",
        [ Alcotest.test_case "rewrite roundtrip" `Quick test_nat_rewrite_roundtrip;
          Alcotest.test_case "leaves others" `Quick test_nat_leaves_others ] );
      ( "rate_limiter",
        [ Alcotest.test_case "burst policing" `Quick test_rate_limiter_polices;
          Alcotest.test_case "sustained rate" `Quick test_rate_limiter_sustained_rate ] );
      ( "telemetry",
        [ Alcotest.test_case "counts+stamps" `Quick test_telemetry_counts_and_stamps ] );
      ( "congestion",
        [ Alcotest.test_case "certifies" `Quick test_cc_blocks_certify;
          Alcotest.test_case "reno" `Quick test_reno_semantics;
          Alcotest.test_case "dctcp" `Quick test_dctcp_proportional;
          Alcotest.test_case "timely" `Quick test_timely_rtt_gradient;
          Alcotest.test_case "live swap e2e" `Quick test_cc_live_swap_end_to_end ] )
    ]
