(* Observability subsystem tests: registry semantics, exporter output
   shape, and qcheck properties — span trees are well-nested and
   clock-monotonic, histogram quantiles bracket the true empirical
   quantile, and a seeded faulty run exports byte-identical traces. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let to_alcotest = QCheck_alcotest.to_alcotest

(* -- Registry ------------------------------------------------------------- *)

let test_counter_basics () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "a";
  Obs.Metrics.incr m ~by:4 "a";
  check_int "incr accumulates" 5 (Obs.Metrics.get_counter m "a");
  check_int "absent counter reads 0" 0 (Obs.Metrics.get_counter m "nope");
  let h = Obs.Metrics.counter m "a" in
  incr h;
  check_int "handle aliases the series" 6 (Obs.Metrics.get_counter m "a")

let test_labels_canonical () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m ~labels:[ ("x", "1"); ("y", "2") ] "c";
  Obs.Metrics.incr m ~labels:[ ("y", "2"); ("x", "1") ] "c";
  check_int "label order does not split series" 2
    (Obs.Metrics.get_counter m ~labels:[ ("x", "1"); ("y", "2") ] "c");
  check_int "different labels are distinct series" 0
    (Obs.Metrics.get_counter m ~labels:[ ("x", "9") ] "c")

let test_gauge () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.set_gauge m "g" 2.5;
  Obs.Metrics.set_gauge m "g" 7.25;
  match Obs.Metrics.to_list m with
  | [ ("g", [], Obs.Metrics.Gauge v) ] ->
    check "gauge keeps last value" true (v = 7.25)
  | _ -> Alcotest.fail "expected exactly one gauge series"

let test_kind_conflict () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "k";
  check "reusing a counter as gauge raises" true
    (try
       ignore (Obs.Metrics.gauge m "k");
       false
     with Invalid_argument _ -> true)

(* Per-domain accumulators: merge adds counters/gauges/histograms
   series-wise and the result must export exactly like a registry that
   saw all the observations itself. *)
let test_merge_semantics () =
  let a = Obs.Metrics.create () and b = Obs.Metrics.create () in
  Obs.Metrics.incr a ~by:3 ~labels:[ ("s", "0") ] "pkt";
  Obs.Metrics.incr b ~by:4 ~labels:[ ("s", "0") ] "pkt";
  Obs.Metrics.incr b ~by:7 ~labels:[ ("s", "1") ] "pkt";
  Obs.Metrics.set_gauge a "depth" 2.;
  Obs.Metrics.set_gauge b "depth" 3.5;
  Obs.Metrics.observe a "lat" 0.5;
  Obs.Metrics.observe b "lat" 0.5;
  Obs.Metrics.observe b "lat" 8.;
  Obs.Metrics.merge_into ~into:a b;
  check_int "counters add series-wise" 7
    (Obs.Metrics.get_counter a ~labels:[ ("s", "0") ] "pkt");
  check_int "absent series copied" 7
    (Obs.Metrics.get_counter a ~labels:[ ("s", "1") ] "pkt");
  check "gauges add" true
    (match
       List.assoc_opt "depth"
         (List.map (fun (n, _, v) -> (n, v)) (Obs.Metrics.to_list a))
     with
     | Some (Obs.Metrics.Gauge v) -> v = 5.5
     | _ -> false);
  (* the merged histogram must equal one that saw all three samples *)
  let whole = Obs.Metrics.create () in
  List.iter (Obs.Metrics.observe whole "lat") [ 0.5; 0.5; 8. ];
  Obs.Metrics.set_gauge whole "depth" 5.5;
  Obs.Metrics.incr whole ~by:7 ~labels:[ ("s", "0") ] "pkt";
  Obs.Metrics.incr whole ~by:7 ~labels:[ ("s", "1") ] "pkt";
  check_str "merged export = single-registry export"
    (Obs.Export.prometheus whole) (Obs.Export.prometheus a);
  (* [merged] folds many registries without touching the inputs *)
  let c = Obs.Metrics.create () in
  Obs.Metrics.incr c ~by:2 "x";
  let d = Obs.Metrics.create () in
  Obs.Metrics.incr d ~by:5 "x";
  let m = Obs.Metrics.merged [ c; d ] in
  check_int "merged folds registries" 7 (Obs.Metrics.get_counter m "x");
  check_int "inputs untouched" 2 (Obs.Metrics.get_counter c "x")

let test_merge_kind_conflict () =
  let a = Obs.Metrics.create () and b = Obs.Metrics.create () in
  Obs.Metrics.incr a "k";
  Obs.Metrics.set_gauge b "k" 1.;
  check "merging conflicting kinds raises" true
    (try
       Obs.Metrics.merge_into ~into:a b;
       false
     with Invalid_argument _ -> true)

(* A netsim component hands out its live registry, not a copy: series
   bumped through that handle and through a counter handle on it are
   the ones the component reads back. *)
let test_stats_adapter () =
  let inj = Netsim.Faults.create ~sim:(Netsim.Sim.create ()) ~seed:1 [] in
  Obs.Metrics.incr (Netsim.Faults.counters inj) "x";
  incr (Obs.Metrics.counter (Netsim.Faults.counters inj) "x");
  check_int "both paths hit the same series" 2
    (Obs.Metrics.get_counter (Netsim.Faults.counters inj) "x")

(* -- Exporters ------------------------------------------------------------ *)

let test_prometheus_shape () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m ~by:3 ~labels:[ ("dev", "s0") ] "pkt.count";
  Obs.Metrics.observe m "lat" 0.5;
  let out = Obs.Export.prometheus m in
  let has needle =
    let nl = String.length needle and ol = String.length out in
    let rec go i = i + nl <= ol && (String.sub out i nl = needle || go (i + 1)) in
    go 0
  in
  check "TYPE line for the counter" true (has "# TYPE flexnet_pkt_count counter");
  check "sanitized labeled sample" true (has "flexnet_pkt_count{dev=\"s0\"} 3");
  check "summary count line" true (has "flexnet_lat_count 1");
  check "quantile lines" true (has "flexnet_lat{quantile=\"0.9\"}")

let test_trace_sim_clock () =
  let sim = Netsim.Sim.create () in
  let tr = Obs.Scope.trace (Netsim.Sim.obs sim) in
  Netsim.Sim.at sim 0.5 (fun () ->
      Obs.Trace.with_span tr "work" (fun _ -> ()));
  ignore (Netsim.Sim.run sim);
  match Obs.Trace.by_name tr "work" with
  | [ s ] -> check "span stamped with virtual time" true (s.Obs.Trace.start_time = 0.5)
  | _ -> Alcotest.fail "expected one span"

(* -- Property: span trees well-nested, ids/clock monotone ----------------- *)

let rec split_at n = function
  | [] -> ([], [])
  | l when n <= 0 -> ([], l)
  | x :: rest ->
    let a, b = split_at (n - 1) rest in
    (x :: a, b)

let prop_span_trees =
  QCheck.Test.make ~name:"span trees well-nested and clock-monotonic" ~count:300
    QCheck.(list_of_size Gen.(int_bound 40) (int_bound 5))
    (fun script ->
      let now = ref 0. in
      let tr = Obs.Trace.create ~clock:(fun () -> !now) () in
      (* interpret the script as a tree: each token opens a span and
         hands [k mod 3] following tokens to the child level *)
      let rec go ?parent = function
        | [] -> ()
        | k :: rest ->
          let inner, after = split_at (k mod 3) rest in
          now := !now +. 1.;
          Obs.Trace.with_span tr ?parent "s" (fun span ->
              now := !now +. 1.;
              go ~parent:span inner;
              now := !now +. 1.);
          go ?parent after
      in
      go script;
      let spans = Obs.Trace.spans tr in
      let by_id = List.map (fun s -> (s.Obs.Trace.id, s)) spans in
      let rec monotone = function
        | a :: (b :: _ as rest) ->
          a.Obs.Trace.id < b.Obs.Trace.id
          && a.Obs.Trace.start_time <= b.Obs.Trace.start_time
          && monotone rest
        | _ -> true
      in
      monotone spans
      && List.for_all
           (fun s ->
             match s.Obs.Trace.end_time with
             | None -> false (* with_span closes everything *)
             | Some e ->
               s.Obs.Trace.start_time <= e
               && (s.Obs.Trace.parent_id = 0
                   || (match List.assoc_opt s.Obs.Trace.parent_id by_id with
                       | None -> false
                       | Some p ->
                         p.Obs.Trace.start_time <= s.Obs.Trace.start_time
                         && (match p.Obs.Trace.end_time with
                             | None -> false
                             | Some pe -> e <= pe))))
           spans)

(* -- Property: histogram quantiles bracket the true quantile -------------- *)

let prop_histogram_bracket =
  QCheck.Test.make ~name:"histogram quantile brackets true quantile" ~count:500
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 80) (float_range 1e-6 1e6))
        (float_bound_inclusive 1.))
    (fun (values, q) ->
      let m = Obs.Metrics.create () in
      List.iter (Obs.Metrics.observe m "h") values;
      let h = Obs.Metrics.histogram m "h" in
      let est = Obs.Metrics.Histogram.quantile h q in
      let n = List.length values in
      let rank =
        let r = int_of_float (Float.ceil (q *. float_of_int n)) in
        if r < 1 then 1 else if r > n then n else r
      in
      let true_q = List.nth (List.sort compare values) (rank - 1) in
      (* estimate is the upper bound of the true quantile's bucket: at
         most one [base] ratio above, never below (modulo float slack) *)
      est >= true_q *. (1. -. 1e-9)
      && est <= true_q *. Obs.Metrics.Histogram.base *. (1. +. 1e-9))

(* -- Property/regression: seeded runs export byte-identical traces -------- *)

(* A run with every span source active: deploy, traffic, a lossy link
   window, flaky dRPC (retries), and a hitless patch. *)
let observed_run () =
  let net = Flexnet.create ~arch:Targets.Arch.Drmt ~switches:3 () in
  (match Flexnet.deploy_infrastructure net with
   | Ok _ -> ()
   | Error e -> failwith e);
  let sim = Flexnet.sim net in
  let faults =
    Netsim.Faults.create ~sim ~seed:11
      [ Netsim.Faults.Link_window
          { link = "*"; start = 0.2; stop = 0.4; what = Netsim.Faults.Loss 0.3 };
        Netsim.Faults.Drpc_window
          { service = "*"; start = 0.2; stop = 0.4; drop_prob = 0.5 } ]
  in
  List.iter
    (fun w -> Netsim.Faults.bind_node_links faults w.Runtime.Wiring.node)
    (Flexnet.wireds net);
  let drpc = Flexnet.drpc net in
  Runtime.Drpc.set_faults drpc (Some faults);
  Runtime.Drpc.register_standard drpc ~fleet:(Flexnet.path net)
    ~map_name:"flow_bytes";
  let h0 = Flexnet.h0 net and h1 = Flexnet.h1 net in
  let gen = Netsim.Traffic.create sim in
  Netsim.Traffic.cbr gen ~rate_pps:500. ~start:0. ~stop:1.5 ~send:(fun () ->
      Flexnet.send_h0 net
        (Netsim.Traffic.tcp_packet ~src:h0.Netsim.Node.id
           ~dst:h1.Netsim.Node.id ~sport:1234 ~dport:80
           ~born:(Netsim.Sim.now sim) ()));
  Netsim.Sim.at sim 0.3 (fun () ->
      for _ = 1 to 4 do
        Runtime.Drpc.invoke_dataplane drpc "heartbeat" [] ~k:(fun _ -> ())
      done);
  let patch =
    Flexbpf.Patch.v "add-telemetry"
      [ Flexbpf.Patch.Add_map Apps.Telemetry.flow_bytes_map;
        Flexbpf.Patch.Add_element
          (Flexbpf.Patch.Before (Flexbpf.Patch.Sel_name "ipv4_lpm"),
           Apps.Telemetry.flow_counter) ]
  in
  Netsim.Sim.at sim 1.0 (fun () -> ignore (Flexnet.patch_hitless net patch));
  Flexnet.run net ~until:2.0;
  let scope = Flexnet.obs net in
  ( Obs.Export.trace_jsonl (Obs.Scope.trace scope),
    Obs.Export.prometheus (Obs.Scope.metrics scope) )

let test_deterministic_export () =
  let trace1, metrics1 = observed_run () in
  let trace2, metrics2 = observed_run () in
  check "trace is non-trivial" true (String.length trace1 > 100);
  check_str "traces byte-identical across seeded runs" trace1 trace2;
  check_str "metrics byte-identical across seeded runs" metrics1 metrics2

let () =
  Alcotest.run "obs"
    [ ( "registry",
        [ Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "labels canonical" `Quick test_labels_canonical;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "kind conflict" `Quick test_kind_conflict;
          Alcotest.test_case "merge semantics" `Quick test_merge_semantics;
          Alcotest.test_case "merge kind conflict" `Quick
            test_merge_kind_conflict;
          Alcotest.test_case "stats adapter" `Quick test_stats_adapter ] );
      ( "export",
        [ Alcotest.test_case "prometheus shape" `Quick test_prometheus_shape;
          Alcotest.test_case "sim clock wiring" `Quick test_trace_sim_clock ] );
      ( "properties",
        [ to_alcotest prop_span_trees;
          to_alcotest prop_histogram_bracket ] );
      ( "determinism",
        [ Alcotest.test_case "byte-identical exports" `Quick
            test_deterministic_export ] ) ]
