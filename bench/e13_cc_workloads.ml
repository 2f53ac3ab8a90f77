(* E13 — Congestion control vs workload mix (§1.1).

   "The optimal choice of CC algorithms further depends on the mix of
   applications and workloads, which fluctuate dynamically at runtime."
   This is the motivation for swapping CC programs live (the cc_upgrade
   example performs the swap; this experiment shows why one would).

   Three workloads over the same congested path, each run under the
   three FlexBPF CC programs (interpreted per-ACK):
   - bulk: 4 long flows — throughput-bound, the interesting metric is
     the standing queue each CC maintains at the bottleneck;
   - incast: 24 short flows at once — loss/recovery-bound, the
     interesting metrics are completion time and retransmissions;
   - zipf: 16 flows with power-law (Traffic.zipf) sizes — mice and
     elephants mixed, the regime where the bulk and incast optima
     pull in opposite directions. *)

let congested () =
  let sim = Netsim.Sim.create () in
  let built =
    Netsim.Topology.linear ~sim ~switches:2 ~link_bandwidth:5e7
      ~queue_capacity:64 ~ecn_threshold:8 ()
  in
  let topo = built.Netsim.Topology.topo in
  List.iter
    (fun sw -> Netsim.Node.set_handler sw (Netsim.Topology.forwarding_handler topo))
    built.Netsim.Topology.switch_list;
  let h0 = List.nth built.Netsim.Topology.host_list 0 in
  let h1 = List.nth built.Netsim.Topology.host_list 1 in
  let bottleneck = Option.get (Netsim.Node.link h0 ~port:0) in
  (sim, h0, h1, bottleneck)

let run_workload cc_block workload =
  let sim, h0, h1, bottleneck = congested () in
  let stack = Netsim.Transport.create ~rto:0.02 sim in
  ignore (Netsim.Transport.attach stack h0 ());
  ignore (Netsim.Transport.attach stack h1 ());
  Netsim.Transport.set_cc stack h0.Netsim.Node.id
    (Apps.Congestion.to_transport_cc cc_block);
  let n, next_packets =
    match workload with
    | `Bulk -> (4, fun () -> 800)
    | `Incast -> (24, fun () -> 40)
    | `Zipf ->
      (* power-law flow sizes: P(size = s) ∝ 1/s^alpha — mostly mice,
         the occasional elephant, all from one seeded sampler *)
      let gen = Netsim.Traffic.create ~seed:42 sim in
      (16, Netsim.Traffic.zipf ~alpha:1.1 gen ~n:800)
  in
  let flows =
    List.init n (fun _ ->
        Netsim.Transport.start_flow stack ~src:h0.Netsim.Node.id
          ~dst:h1.Netsim.Node.id ~packets:(next_packets ()) ())
  in
  ignore (Netsim.Sim.run ~until:200. sim);
  let fct =
    List.fold_left
      (fun acc f ->
        acc
        +. (Option.value f.Netsim.Transport.done_at ~default:200.
            -. f.Netsim.Transport.started))
      0. flows
    /. float_of_int n
  in
  let retx =
    List.fold_left (fun acc f -> acc + f.Netsim.Transport.retransmits) 0 flows
  in
  (fct, retx, Netsim.Link.mean_depth bottleneck, Netsim.Link.drops bottleneck)

let run () =
  let ccs =
    [ ("reno", Apps.Congestion.reno_block);
      ("dctcp", Apps.Congestion.dctcp_block);
      ("timely", Apps.Congestion.timely_block ()) ]
  in
  let rows =
    List.map
      (fun (name, blk) ->
        let bulk_fct, _, bulk_q, bulk_drops = run_workload blk `Bulk in
        let incast_fct, incast_retx, _, _ = run_workload blk `Incast in
        let zipf_fct, zipf_retx, _, _ = run_workload blk `Zipf in
        [ name; Report.ms bulk_fct; Report.f1 bulk_q; Report.i bulk_drops;
          Report.ms incast_fct; Report.i incast_retx; Report.ms zipf_fct;
          Report.i zipf_retx ])
      ccs
  in
  Report.print ~id:"E13" ~title:"congestion control vs workload mix"
    ~claim:
      "the best CC program depends on the current workload — bulk transfers \
       care about standing queues, incasts about loss recovery — and the mix \
       fluctuates at runtime, motivating live CC swaps (see cc_upgrade)"
    ~header:
      [ "cc-program"; "bulk-FCT(ms)"; "bulk-queue(pkts)"; "bulk-drops";
        "incast-FCT(ms)"; "incast-retx"; "zipf-FCT(ms)"; "zipf-retx" ]
    rows
