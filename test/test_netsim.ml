(* Tests for the discrete-event network simulator substrate. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* -- Event queue -------------------------------------------------------- *)

let test_eq_ordering () =
  let q = Netsim.Event_queue.create () in
  let out = ref [] in
  let ev time seq =
    Netsim.Event_queue.push q ~time ~seq (fun () ->
        out := Netsim.Event_queue.min_time q :: !out)
  in
  ev 3.0 1;
  ev 1.0 2;
  ev 2.0 3;
  let times = ref [] in
  let rec drain () =
    if not (Netsim.Event_queue.is_empty q) then begin
      times := Netsim.Event_queue.min_time q :: !times;
      ignore (Netsim.Event_queue.pop_exn q : unit -> unit);
      drain ()
    end
  in
  drain ();
  Alcotest.(check (list (float 0.))) "sorted" [ 1.0; 2.0; 3.0 ] (List.rev !times)

let test_eq_tiebreak () =
  let q = Netsim.Event_queue.create () in
  let order = ref [] in
  for i = 1 to 50 do
    Netsim.Event_queue.push q ~time:1.0 ~seq:i (fun () -> order := i :: !order)
  done;
  let rec drain () =
    if not (Netsim.Event_queue.is_empty q) then begin
      (Netsim.Event_queue.pop_exn q) ();
      drain ()
    end
  in
  drain ();
  Alcotest.(check (list int)) "fifo within same time" (List.init 50 (fun i -> i + 1))
    (List.rev !order)

let test_eq_grows () =
  let q = Netsim.Event_queue.create () in
  for i = 0 to 999 do
    Netsim.Event_queue.push q ~time:(float_of_int (999 - i)) ~seq:i ignore
  done;
  check_int "length" 1000 (Netsim.Event_queue.length q);
  let last = ref (-1.) in
  let ok = ref true in
  let rec drain () =
    if not (Netsim.Event_queue.is_empty q) then begin
      let time = Netsim.Event_queue.min_time q in
      ignore (Netsim.Event_queue.pop_exn q : unit -> unit);
      if time < !last then ok := false;
      last := time;
      drain ()
    end
  in
  drain ();
  check "heap order preserved across growth" true !ok

let test_eq_empty_pop () =
  let q = Netsim.Event_queue.create () in
  check "fresh queue empty" true (Netsim.Event_queue.is_empty q);
  Alcotest.(check (float 0.)) "min_time of empty" infinity
    (Netsim.Event_queue.min_time q);
  Alcotest.check_raises "pop of empty raises"
    (Invalid_argument "Event_queue.pop_exn: empty queue") (fun () ->
      ignore (Netsim.Event_queue.pop_exn q : unit -> unit))

(* Model-based qcheck property: under arbitrary interleavings of pushes
   and pops — with timestamps drawn from a tiny range so duplicates are
   the common case, and pops interleaved so the hole-sifting insert has
   to cope with a churning array — every pop returns the pending event
   that is minimal in (time, seq). Among equal timestamps that is FIFO
   order, the invariant the deterministic sharded scheduler leans on. *)
let prop_eq_interleaved_fifo =
  QCheck.Test.make
    ~name:"event queue: interleaved push/pop is FIFO among equal times"
    ~count:500
    QCheck.(list (pair (int_bound 4) bool))
    (fun ops ->
      let q = Netsim.Event_queue.create () in
      let popped = ref (-1., -1) in
      let model = ref [] in
      (* pending (time, seq), unsorted *)
      let seq = ref 0 in
      let ok = ref true in
      let do_pop () =
        let reported = Netsim.Event_queue.min_time q in
        (Netsim.Event_queue.pop_exn q) ();
        let min =
          List.fold_left Stdlib.min (List.hd !model) (List.tl !model)
        in
        if !popped <> min || reported <> fst min then ok := false;
        model := List.filter (fun x -> x <> min) !model
      in
      List.iter
        (fun (t, push) ->
          if push || !model = [] then begin
            let id = (float_of_int t, !seq) in
            Netsim.Event_queue.push q ~time:(fst id) ~seq:!seq (fun () ->
                popped := id);
            model := id :: !model;
            incr seq
          end
          else do_pop ())
        ops;
      while !model <> [] do
        do_pop ()
      done;
      !ok && Netsim.Event_queue.is_empty q)

(* -- Sim ----------------------------------------------------------------- *)

let test_sim_clock () =
  let sim = Netsim.Sim.create () in
  let seen = ref [] in
  Netsim.Sim.at sim 1.0 (fun () -> seen := ("a", Netsim.Sim.now sim) :: !seen);
  Netsim.Sim.at sim 0.5 (fun () -> seen := ("b", Netsim.Sim.now sim) :: !seen);
  ignore (Netsim.Sim.run sim);
  Alcotest.(check (list (pair string (float 0.))))
    "events in time order with clock set"
    [ ("b", 0.5); ("a", 1.0) ]
    (List.rev !seen)

let test_sim_past_rejected () =
  let sim = Netsim.Sim.create () in
  Netsim.Sim.at sim 1.0 (fun () ->
      Alcotest.check_raises "cannot schedule in the past"
        (Invalid_argument "Sim.at: time 0.500000000 is before now 1.000000000")
        (fun () -> Netsim.Sim.at sim 0.5 ignore));
  ignore (Netsim.Sim.run sim)

let test_sim_until () =
  let sim = Netsim.Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Netsim.Sim.at sim (float_of_int i) (fun () -> incr count)
  done;
  ignore (Netsim.Sim.run ~until:5.5 sim);
  check_int "only events before horizon ran" 5 !count;
  Alcotest.(check (float 1e-9)) "clock at horizon" 5.5 (Netsim.Sim.now sim)

let test_sim_nested_scheduling () =
  let sim = Netsim.Sim.create () in
  let hits = ref 0 in
  let rec cascade n =
    if n > 0 then
      Netsim.Sim.after sim 0.1 (fun () ->
          incr hits;
          cascade (n - 1))
  in
  cascade 5;
  ignore (Netsim.Sim.run sim);
  check_int "cascaded events all ran" 5 !hits;
  Alcotest.(check (float 1e-9)) "time advanced" 0.5 (Netsim.Sim.now sim)

let test_sim_every () =
  let sim = Netsim.Sim.create () in
  let ticks = ref 0 in
  Netsim.Sim.every sim ~period:0.1 (fun () ->
      incr ticks;
      !ticks < 4);
  ignore (Netsim.Sim.run sim);
  check_int "periodic task self-stopped" 4 !ticks

(* -- Packet --------------------------------------------------------------- *)

let test_packet_fields () =
  let pkt =
    Netsim.Packet.create
      [ Netsim.Packet.ethernet ~src:1L ~dst:2L ();
        Netsim.Packet.ipv4 ~src:1L ~dst:2L ();
        Netsim.Packet.tcp ~sport:100L ~dport:200L () ]
  in
  Alcotest.(check (option int64)) "read" (Some 2L)
    (Netsim.Packet.field pkt "ipv4" "dst");
  Netsim.Packet.set_field pkt "ipv4" "ttl" 10L;
  Alcotest.(check (option int64)) "write" (Some 10L)
    (Netsim.Packet.field pkt "ipv4" "ttl");
  Alcotest.(check (option int64)) "missing header" None
    (Netsim.Packet.field pkt "vlan" "vid")

let test_packet_set_missing_field () =
  let pkt = Netsim.Packet.create [ Netsim.Packet.ethernet ~src:1L ~dst:2L () ] in
  check "set on absent header raises" true
    (try
       Netsim.Packet.set_field pkt "ipv4" "ttl" 1L;
       false
     with Invalid_argument _ -> true)

let test_packet_push_pop () =
  let pkt = Netsim.Packet.create [ Netsim.Packet.ipv4 ~src:1L ~dst:2L () ] in
  Netsim.Packet.push_header pkt (Netsim.Packet.vlan ~vid:42L ());
  check "vlan present" true (Netsim.Packet.has_header pkt "vlan");
  Alcotest.(check string) "outermost first" "vlan"
    (List.hd pkt.Netsim.Packet.headers).Netsim.Packet.hname;
  Netsim.Packet.pop_header pkt "vlan";
  check "vlan gone" false (Netsim.Packet.has_header pkt "vlan")

let test_flow_hash_stable () =
  let mk () =
    Netsim.Packet.create
      [ Netsim.Packet.ipv4 ~src:5L ~dst:9L ();
        Netsim.Packet.tcp ~sport:10L ~dport:20L () ]
  in
  check_int "same five-tuple, same hash" (Netsim.Packet.flow_hash (mk ()))
    (Netsim.Packet.flow_hash (mk ()))

(* -- Link ------------------------------------------------------------------ *)

let test_link_delivery_timing () =
  let sim = Netsim.Sim.create () in
  let arrival = ref 0. in
  let link =
    Netsim.Link.create ~sim ~name:"l" ~bandwidth:8e6 (* 1 MB/s *)
      ~delay:0.001
      ~deliver:(fun _ -> arrival := Netsim.Sim.now sim)
      ()
  in
  (* 1000 bytes at 8 Mbps = 1ms serialization + 1ms propagation *)
  let pkt = Netsim.Packet.create ~size:1000 [] in
  check "accepted" true (Netsim.Link.transmit link pkt);
  ignore (Netsim.Sim.run sim);
  Alcotest.(check (float 1e-9)) "arrival = serialization + propagation" 0.002
    !arrival

let test_link_queue_drops () =
  let sim = Netsim.Sim.create () in
  let delivered = ref 0 in
  let link =
    Netsim.Link.create ~sim ~name:"l" ~bandwidth:8e3 ~delay:0.
      ~queue_capacity:4
      ~deliver:(fun _ -> incr delivered)
      ()
  in
  (* each packet takes 1s to serialize; burst of 10 into queue of 4 *)
  let accepted = ref 0 in
  for _ = 1 to 10 do
    if Netsim.Link.transmit link (Netsim.Packet.create ~size:1000 []) then
      incr accepted
  done;
  check_int "only queue capacity accepted" 4 !accepted;
  check_int "drops counted" 6 (Netsim.Link.drops link);
  ignore (Netsim.Sim.run sim);
  check_int "accepted packets all delivered" 4 !delivered

let test_link_ecn_marking () =
  let sim = Netsim.Sim.create () in
  let marked = ref 0 in
  let link =
    Netsim.Link.create ~sim ~name:"l" ~bandwidth:8e3 ~delay:0.
      ~queue_capacity:16 ~ecn_threshold:2
      ~deliver:(fun pkt ->
        if Netsim.Packet.field pkt "ipv4" "ecn" = Some 1L then incr marked)
      ()
  in
  for _ = 1 to 6 do
    ignore
      (Netsim.Link.transmit link
         (Netsim.Packet.create ~size:1000
            [ Netsim.Packet.ipv4 ~src:1L ~dst:2L () ]))
  done;
  ignore (Netsim.Sim.run sim);
  (* packets 3..6 saw depth >= 2 at enqueue *)
  check_int "deep-queue packets marked" 4 !marked;
  check_int "marks counted" 4 (Netsim.Link.ecn_marks link)

let test_link_down () =
  let sim = Netsim.Sim.create () in
  let delivered = ref 0 in
  let link =
    Netsim.Link.create ~sim ~name:"l" ~deliver:(fun _ -> incr delivered) ()
  in
  Netsim.Link.set_up link false;
  check "rejected when down" false
    (Netsim.Link.transmit link (Netsim.Packet.create []));
  ignore (Netsim.Sim.run sim);
  check_int "nothing delivered" 0 !delivered

(* -- Topology --------------------------------------------------------------- *)

let test_linear_path () =
  let sim = Netsim.Sim.create () in
  let built = Netsim.Topology.linear ~sim ~switches:3 () in
  let t = built.Netsim.Topology.topo in
  let h0 = List.nth built.Netsim.Topology.host_list 0 in
  let h1 = List.nth built.Netsim.Topology.host_list 1 in
  match Netsim.Topology.shortest_path t ~src:h0.Netsim.Node.id ~dst:h1.Netsim.Node.id with
  | None -> Alcotest.fail "no path"
  | Some p -> check_int "h0 -> 3 switches -> h1" 5 (List.length p)

let test_forwarding_delivers () =
  let sim = Netsim.Sim.create () in
  let built = Netsim.Topology.linear ~sim ~switches:3 () in
  let t = built.Netsim.Topology.topo in
  let h0 = List.nth built.Netsim.Topology.host_list 0 in
  let h1 = List.nth built.Netsim.Topology.host_list 1 in
  (* switches forward, h1 counts *)
  List.iter
    (fun sw -> Netsim.Node.set_handler sw (Netsim.Topology.forwarding_handler t))
    built.Netsim.Topology.switch_list;
  let got = ref 0 in
  Netsim.Node.set_handler h1 (fun _ ~in_port:_ _ -> incr got);
  let pkt =
    Netsim.Packet.create
      [ Netsim.Packet.ethernet ~src:(Int64.of_int h0.Netsim.Node.id)
          ~dst:(Int64.of_int h1.Netsim.Node.id) ();
        Netsim.Packet.ipv4 ~src:(Int64.of_int h0.Netsim.Node.id)
          ~dst:(Int64.of_int h1.Netsim.Node.id) () ]
  in
  Netsim.Node.send h0 ~port:0 pkt;
  ignore (Netsim.Sim.run sim);
  check_int "delivered end to end" 1 !got

let test_ecmp_spreads () =
  let sim = Netsim.Sim.create () in
  let built = Netsim.Topology.leaf_spine ~sim ~spines:4 ~leaves:2 ~hosts_per_leaf:1 () in
  let t = built.Netsim.Topology.topo in
  let h0 = List.nth built.Netsim.Topology.host_list 0 in
  let h1 = List.nth built.Netsim.Topology.host_list 1 in
  let leaf0 = List.nth built.Netsim.Topology.switch_list 4 (* spines first *) in
  let hops = Netsim.Topology.next_hops t ~src:leaf0.Netsim.Node.id ~dst:h1.Netsim.Node.id in
  check_int "4 equal-cost spine choices" 4 (List.length hops);
  (* different flows should not all pick the same port *)
  let ports =
    List.init 50 (fun i ->
        let pkt =
          Netsim.Packet.create
            [ Netsim.Packet.ipv4 ~src:(Int64.of_int h0.Netsim.Node.id)
                ~dst:(Int64.of_int h1.Netsim.Node.id) ();
              Netsim.Packet.tcp ~sport:(Int64.of_int (1000 + i)) ~dport:80L () ]
        in
        Netsim.Topology.ecmp_port t ~src:leaf0.Netsim.Node.id
          ~dst:h1.Netsim.Node.id pkt)
    |> List.filter_map Fun.id
    |> List.sort_uniq compare
  in
  check "ECMP uses more than one port" true (List.length ports > 1)

let test_fat_tree_shape () =
  let sim = Netsim.Sim.create () in
  let built = Netsim.Topology.fat_tree ~sim ~k:4 () in
  check_int "k=4 fat tree has 16 hosts" 16
    (List.length built.Netsim.Topology.host_list);
  check_int "k=4 fat tree has 20 switches" 20
    (List.length built.Netsim.Topology.switch_list);
  (* all host pairs reachable *)
  let t = built.Netsim.Topology.topo in
  let h = built.Netsim.Topology.host_list in
  let reachable =
    List.for_all
      (fun a ->
        List.for_all
          (fun b ->
            a == b
            || Netsim.Topology.shortest_path t ~src:a.Netsim.Node.id
                 ~dst:b.Netsim.Node.id
               <> None)
          h)
      h
  in
  check "full reachability" true reachable

(* -- Traffic ------------------------------------------------------------------ *)

let test_cbr_count () =
  let sim = Netsim.Sim.create () in
  let gen = Netsim.Traffic.create sim in
  let n = ref 0 in
  Netsim.Traffic.cbr gen ~rate_pps:100. ~start:0. ~stop:1.0 ~send:(fun () -> incr n);
  ignore (Netsim.Sim.run sim);
  check_int "100 pps for 1s" 100 !n

let test_poisson_reproducible () =
  let run seed =
    let sim = Netsim.Sim.create () in
    let gen = Netsim.Traffic.create ~seed sim in
    let n = ref 0 in
    Netsim.Traffic.poisson gen ~lambda:500. ~start:0. ~stop:1.0
      ~send:(fun () -> incr n);
    ignore (Netsim.Sim.run sim);
    !n
  in
  check_int "same seed, same count" (run 42) (run 42);
  let a = run 42 in
  check "roughly poisson mean" true (a > 350 && a < 650)

let test_ramp_shape () =
  let sim = Netsim.Sim.create () in
  let gen = Netsim.Traffic.create sim in
  let times = ref [] in
  Netsim.Traffic.ramp gen ~peak_pps:1000. ~start:0. ~ramp_up:0.5 ~hold:0.5
    ~ramp_down:0.5 ~send:(fun () -> times := Netsim.Sim.now sim :: !times);
  ignore (Netsim.Sim.run sim);
  let in_window lo hi =
    List.length (List.filter (fun t -> t >= lo && t < hi) !times)
  in
  (* middle of the ramp-up should be sparser than the hold phase *)
  check "hold denser than early ramp" true
    (in_window 0.6 0.9 > in_window 0.0 0.3);
  check "ramp-down tail sparser than hold" true
    (in_window 1.3 1.5 < in_window 0.6 0.8)

let test_onoff_bursty () =
  let sim = Netsim.Sim.create () in
  let gen = Netsim.Traffic.create ~seed:5 sim in
  let times = ref [] in
  Netsim.Traffic.onoff gen ~rate_pps:1000. ~mean_on:0.05 ~mean_off:0.05
    ~start:0. ~stop:2.0 ~send:(fun () -> times := Netsim.Sim.now sim :: !times);
  ignore (Netsim.Sim.run sim);
  let n = List.length !times in
  (* duty cycle ~50%: well below the always-on 2000, well above zero *)
  check "bursty count in duty-cycle band" true (n > 300 && n < 1700);
  (* burstiness: many consecutive gaps at exactly 1/rate, some much larger *)
  let sorted = List.sort compare !times in
  let gaps =
    List.map2 ( -. ) (List.tl sorted) (List.filteri (fun i _ -> i < n - 1) sorted)
  in
  check "has intra-burst gaps" true (List.exists (fun g -> g < 0.0015) gaps);
  check "has off-period gaps" true (List.exists (fun g -> g > 0.01) gaps)

let test_flow_arrivals () =
  let sim = Netsim.Sim.create () in
  let gen = Netsim.Traffic.create ~seed:6 sim in
  let sizes = ref [] in
  Netsim.Traffic.flow_arrivals gen ~lambda:100. ~alpha:1.3 ~min_packets:2
    ~max_packets:500 ~start:0. ~stop:1.0
    ~start_flow:(fun ~packets -> sizes := packets :: !sizes);
  ignore (Netsim.Sim.run sim);
  let n = List.length !sizes in
  check "roughly lambda flows" true (n > 60 && n < 150);
  check "sizes within bounds" true
    (List.for_all (fun s -> s >= 2 && s <= 500) !sizes);
  (* heavy tail: the max should dwarf the median *)
  let sorted = List.sort compare !sizes in
  let median = List.nth sorted (n / 2) in
  let biggest = List.nth sorted (n - 1) in
  check "heavy-tailed sizes" true (biggest > 4 * median)

let test_pareto_bounds () =
  let sim = Netsim.Sim.create () in
  let gen = Netsim.Traffic.create sim in
  let ok = ref true in
  for _ = 1 to 1000 do
    let x = Netsim.Traffic.pareto gen ~alpha:1.3 ~xmin:2. ~xmax:1000. in
    if x < 2. || x > 1000. then ok := false
  done;
  check "bounded pareto stays in bounds" true !ok

let test_zipf_deterministic () =
  (* same seed => identical rank stream, independent of wall clock *)
  let draw_seq seed =
    let sim = Netsim.Sim.create () in
    let gen = Netsim.Traffic.create ~seed sim in
    let draw = Netsim.Traffic.zipf ~alpha:1.1 gen ~n:512 in
    List.init 2000 (fun _ -> draw ())
  in
  check "same seed, same stream" true (draw_seq 42 = draw_seq 42);
  check "different seed, different stream" true (draw_seq 42 <> draw_seq 43);
  let in_range = List.for_all (fun r -> r >= 1 && r <= 512) (draw_seq 7) in
  check "ranks stay in [1, n]" true in_range

let test_zipf_tail_mass () =
  (* Zipf(1.1) over 1000 ranks: the top 10% of ranks carry the bulk of
     the draws (analytically ~78%; 70% is a generous floor robust to
     sampling noise), and rank 1 must be the most popular *)
  let sim = Netsim.Sim.create () in
  let gen = Netsim.Traffic.create ~seed:11 sim in
  let n = 1000 and draws = 50_000 in
  let draw = Netsim.Traffic.zipf ~alpha:1.1 gen ~n in
  let counts = Array.make (n + 1) 0 in
  for _ = 1 to draws do
    let r = draw () in
    counts.(r) <- counts.(r) + 1
  done;
  let top = ref 0 in
  for r = 1 to n / 10 do
    top := !top + counts.(r)
  done;
  check "top 10% of ranks carry >= 70% of draws" true
    (float_of_int !top >= 0.70 *. float_of_int draws);
  let max_count = Array.fold_left max 0 counts in
  check "rank 1 is the mode" true (counts.(1) = max_count)

(* -- Stats ---------------------------------------------------------------- *)

let test_summary () =
  let s = Netsim.Stats.Summary.create () in
  List.iter (Netsim.Stats.Summary.add s) [ 1.; 2.; 3.; 4.; 5. ];
  Alcotest.(check (float 1e-9)) "mean" 3. (Netsim.Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "min" 1. (Netsim.Stats.Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 5. (Netsim.Stats.Summary.max s);
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 2.5)
    (Netsim.Stats.Summary.stddev s)

let test_reservoir_percentiles () =
  let r = Netsim.Stats.Reservoir.create ~capacity:1000 () in
  for i = 1 to 1000 do
    Netsim.Stats.Reservoir.add r (float_of_int i)
  done;
  let p50 = Netsim.Stats.Reservoir.percentile r 50. in
  check "median near 500" true (p50 > 450. && p50 < 550.)

(* Netsim components count into an Obs.Metrics registry directly; the
   injector's registry accumulates with [~by] and reads missing series
   as zero. *)
let test_counters () =
  let inj = Netsim.Faults.create ~sim:(Netsim.Sim.create ()) ~seed:1 [] in
  let c = Netsim.Faults.counters inj in
  Obs.Metrics.incr c "a";
  Obs.Metrics.incr c "a" ~by:4;
  check_int "accumulates" 5 (Obs.Metrics.get_counter c "a");
  check_int "missing is zero" 0 (Obs.Metrics.get_counter c "b")

(* -- Transport --------------------------------------------------------------- *)

let transport_net () =
  let sim = Netsim.Sim.create () in
  let built = Netsim.Topology.linear ~sim ~switches:2 ~queue_capacity:64 () in
  let t = built.Netsim.Topology.topo in
  List.iter
    (fun sw -> Netsim.Node.set_handler sw (Netsim.Topology.forwarding_handler t))
    built.Netsim.Topology.switch_list;
  let h0 = List.nth built.Netsim.Topology.host_list 0 in
  let h1 = List.nth built.Netsim.Topology.host_list 1 in
  (sim, t, h0, h1)

let test_transport_completes () =
  let sim, _t, h0, h1 = transport_net () in
  let stack = Netsim.Transport.create sim in
  ignore (Netsim.Transport.attach stack h0 ());
  ignore (Netsim.Transport.attach stack h1 ());
  let flow =
    Netsim.Transport.start_flow stack ~src:h0.Netsim.Node.id
      ~dst:h1.Netsim.Node.id ~packets:200 ()
  in
  ignore (Netsim.Sim.run ~until:10. sim);
  check_int "all packets acked" 200 flow.Netsim.Transport.acked;
  check "flow recorded done" true (flow.Netsim.Transport.done_at <> None);
  check_int "stack completion count" 1 (Netsim.Transport.completed stack)

let test_transport_cc_swap () =
  let sim, _t, h0, h1 = transport_net () in
  let stack = Netsim.Transport.create sim in
  ignore (Netsim.Transport.attach stack h0 ());
  ignore (Netsim.Transport.attach stack h1 ());
  let aggressive =
    { Netsim.Transport.cc_name = "aggressive"; init_cwnd = 64.;
      on_ack = (fun ~cwnd ~ecn:_ ~rtt:_ -> cwnd +. 1.);
      on_loss = (fun ~cwnd -> cwnd) }
  in
  Netsim.Transport.set_cc stack h0.Netsim.Node.id aggressive;
  let flow =
    Netsim.Transport.start_flow stack ~src:h0.Netsim.Node.id
      ~dst:h1.Netsim.Node.id ~packets:50 ()
  in
  Alcotest.(check (float 0.)) "new cc governs initial window" 64.
    flow.Netsim.Transport.cwnd;
  ignore (Netsim.Sim.run ~until:10. sim);
  check_int "completes under swapped cc" 50 flow.Netsim.Transport.acked

let () =
  Alcotest.run "netsim"
    [ ( "event_queue",
        [ Alcotest.test_case "ordering" `Quick test_eq_ordering;
          Alcotest.test_case "fifo tiebreak" `Quick test_eq_tiebreak;
          Alcotest.test_case "growth" `Quick test_eq_grows;
          Alcotest.test_case "empty pop" `Quick test_eq_empty_pop;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 0x5eed |])
            prop_eq_interleaved_fifo ] );
      ( "sim",
        [ Alcotest.test_case "clock" `Quick test_sim_clock;
          Alcotest.test_case "past rejected" `Quick test_sim_past_rejected;
          Alcotest.test_case "until horizon" `Quick test_sim_until;
          Alcotest.test_case "nested scheduling" `Quick test_sim_nested_scheduling;
          Alcotest.test_case "periodic" `Quick test_sim_every ] );
      ( "packet",
        [ Alcotest.test_case "fields" `Quick test_packet_fields;
          Alcotest.test_case "missing field set" `Quick test_packet_set_missing_field;
          Alcotest.test_case "push/pop" `Quick test_packet_push_pop;
          Alcotest.test_case "flow hash stable" `Quick test_flow_hash_stable ] );
      ( "link",
        [ Alcotest.test_case "delivery timing" `Quick test_link_delivery_timing;
          Alcotest.test_case "queue drops" `Quick test_link_queue_drops;
          Alcotest.test_case "ecn marking" `Quick test_link_ecn_marking;
          Alcotest.test_case "link down" `Quick test_link_down ] );
      ( "topology",
        [ Alcotest.test_case "linear path" `Quick test_linear_path;
          Alcotest.test_case "forwarding" `Quick test_forwarding_delivers;
          Alcotest.test_case "ecmp spreads" `Quick test_ecmp_spreads;
          Alcotest.test_case "fat tree" `Quick test_fat_tree_shape ] );
      ( "traffic",
        [ Alcotest.test_case "cbr count" `Quick test_cbr_count;
          Alcotest.test_case "poisson reproducible" `Quick test_poisson_reproducible;
          Alcotest.test_case "attack ramp" `Quick test_ramp_shape;
          Alcotest.test_case "on/off bursts" `Quick test_onoff_bursty;
          Alcotest.test_case "flow arrivals" `Quick test_flow_arrivals;
          Alcotest.test_case "pareto bounds" `Quick test_pareto_bounds;
          Alcotest.test_case "zipf deterministic" `Quick test_zipf_deterministic;
          Alcotest.test_case "zipf tail mass" `Quick test_zipf_tail_mass ] );
      ( "stats",
        [ Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "reservoir" `Quick test_reservoir_percentiles;
          Alcotest.test_case "counters" `Quick test_counters ] );
      ( "transport",
        [ Alcotest.test_case "flow completes" `Quick test_transport_completes;
          Alcotest.test_case "cc hot swap" `Quick test_transport_cc_swap ] ) ]
