(* E18 — Market-based tenant economy at thousand-tenant scale (§1.1,
   §3; DESIGN.md §4.5).

   Admission as a price equilibrium: arrivals bid for replicas in a
   Market.Auction whose per-architecture price books iterate by
   multiplicative tatonnement against snapshot occupancy; winners are
   placed through the ordinary certify → plan → reconfig pipeline,
   losers are deferred, and when capacity is exhausted the auction
   preempts strictly-less-dense best-effort tenants through the
   ordinary departure path. The claim under test: the economy holds
   steady-state utilization above a fixed-threshold admission policy
   while admission latency stays flat as the offered population grows
   by an order of magnitude.

   Three runs over the same seeded workload generator
   (Common.churn_workload — deterministic programs, sojourns, budgets,
   SLAs):
   - market, ~100 arrivals (the latency yardstick);
   - market, >=1000 arrivals (full mode; CI smoke shrinks both runs
     but keeps the 10x ratio);
   - fixed-threshold baseline at the large scale (admit iff mean
     switch utilization < 0.70, no preemption).

   Hard gates (CI runs this with E18_SMOKE=1):
   - p99 admission latency of the large market run <= 2x the small
     run's p99 (floored at 5 ms so wall-clock noise on a quiet machine
     cannot trip the ratio);
   - mean steady-state utilization of the large market run >= the
     threshold baseline's.

   Results land in BENCH_e18.json, or _smoke/BENCH_e18.json in
   a smoke run, for the CI artifact. *)


type cfg = {
  c_small : int; (* arrivals in the yardstick run *)
  c_large : int; (* arrivals in the scale run *)
  c_lambda : float; (* arrival rate, 1/s of virtual time *)
  c_sojourn : float; (* mean tenant lifetime; lambda * sojourn = offered
                        concurrency, chosen to overload the switches so
                        admission policy decides utilization *)
}

let smoke () = Sys.getenv_opt "E18_SMOKE" <> None

let out_file () = Common.record_path ~smoke:(smoke ()) "BENCH_e18.json"

let config () =
  if smoke () then
    { c_small = 30; c_large = 300; c_lambda = 60.; c_sojourn = 4.0 }
  else { c_small = 100; c_large = 1000; c_lambda = 100.; c_sojourn = 4.0 }

let row label (s : Common.churn_stats) =
  [ label;
    Report.i s.Common.ch_arrivals;
    Report.i s.Common.ch_admitted;
    Report.i s.Common.ch_deferred;
    Report.i s.Common.ch_preempted;
    Report.i s.Common.ch_rejected;
    Report.i s.Common.ch_departed;
    Report.pct s.Common.ch_mean_util;
    Report.pct s.Common.ch_peak_util;
    Printf.sprintf "%.2f" s.Common.ch_lat_p50;
    Printf.sprintf "%.2f" s.Common.ch_lat_p99;
    (if s.Common.ch_rounds = 0 then "-"
     else Printf.sprintf "%d/%d" s.Common.ch_converged s.Common.ch_rounds);
    Printf.sprintf "%.1f" s.Common.ch_wall_s ]

let json_stats oc label (s : Common.churn_stats) =
  Printf.fprintf oc
    "  \"%s\": {\"arrivals\": %d, \"admitted\": %d, \"deferred\": %d, \
     \"preempted\": %d, \"rejected\": %d, \"departed\": %d, \
     \"mean_util\": %.4f, \"peak_util\": %.4f, \"lat_count\": %d, \
     \"lat_p50_ms\": %.3f, \"lat_p90_ms\": %.3f, \"lat_p99_ms\": %.3f, \
     \"rounds\": %d, \"converged_rounds\": %d, \"wall_s\": %.2f}"
    label s.Common.ch_arrivals s.Common.ch_admitted s.Common.ch_deferred
    s.Common.ch_preempted s.Common.ch_rejected s.Common.ch_departed
    s.Common.ch_mean_util s.Common.ch_peak_util s.Common.ch_lat_count
    s.Common.ch_lat_p50 s.Common.ch_lat_p90 s.Common.ch_lat_p99
    s.Common.ch_rounds s.Common.ch_converged s.Common.ch_wall_s

let run () =
  let cfg = config () in
  let workload n =
    Common.churn_workload ~seed:31 ~mean_sojourn:cfg.c_sojourn n
  in
  (* one switch, so the offered concurrency genuinely overloads it and
     admission policy — not raw capacity — decides utilization *)
  let small, _ =
    Common.run_market_churn ~switches:1 ~lambda:cfg.c_lambda
      (workload cfg.c_small)
  in
  let large, au =
    Common.run_market_churn ~switches:1 ~lambda:cfg.c_lambda
      (workload cfg.c_large)
  in
  let base =
    Common.run_threshold_churn ~switches:1 ~lambda:cfg.c_lambda
      (workload cfg.c_large)
  in
  Report.print ~id:"E18" ~title:"market-based tenant economy"
    ~claim:
      "price-driven elastic admission clears thousand-tenant churn \
       through the plan/execute split: utilization beats a fixed \
       admission threshold while p99 admission latency stays within 2x \
       of the 100-tenant level"
    ~header:
      [ "case"; "arrivals"; "admitted"; "deferred"; "preempted"; "rejected";
        "departed"; "mean-util"; "peak-util"; "p50(ms)"; "p99(ms)";
        "converged"; "wall(s)" ]
    [ row (Printf.sprintf "market-%d" cfg.c_small) small;
      row (Printf.sprintf "market-%d" cfg.c_large) large;
      row (Printf.sprintf "threshold-%d" cfg.c_large) base ];
  (* final price book, for the record *)
  List.iter
    (fun (arch, book) ->
      Printf.printf "  book %s: %s\n"
        (Targets.Arch.kind_to_string arch)
        (String.concat ", "
           (List.map
              (fun (k, p) ->
                Printf.sprintf "%s=%.3f" (Market.Prices.rkind_to_string k) p)
              (Market.Prices.prices book))))
    (Market.Auction.books au);
  let lat_floor = 2. *. Float.max small.Common.ch_lat_p99 5.0 in
  let lat_ok = large.Common.ch_lat_p99 <= lat_floor in
  let util_ok = large.Common.ch_mean_util >= base.Common.ch_mean_util in
  let oc = open_out (out_file ()) in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc
    "  \"smoke\": %b,\n  \"lambda\": %g,\n  \"arrivals_small\": %d,\n\
    \  \"arrivals_large\": %d,\n"
    (smoke ()) cfg.c_lambda cfg.c_small cfg.c_large;
  json_stats oc "market_small" small;
  Printf.fprintf oc ",\n";
  json_stats oc "market_large" large;
  Printf.fprintf oc ",\n";
  json_stats oc "threshold_large" base;
  Printf.fprintf oc ",\n";
  Printf.fprintf oc
    "  \"gate_latency\": {\"p99_large_ms\": %.3f, \"limit_ms\": %.3f, \
     \"pass\": %b},\n"
    large.Common.ch_lat_p99 lat_floor lat_ok;
  Printf.fprintf oc
    "  \"gate_utilization\": {\"market\": %.4f, \"threshold\": %.4f, \
     \"pass\": %b}\n"
    large.Common.ch_mean_util base.Common.ch_mean_util util_ok;
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "wrote %s\n" (out_file ());
  Printf.printf "gate: p99 %.2f ms at %d arrivals vs limit %.2f (2x max(p99@%d, 5ms)) %s\n"
    large.Common.ch_lat_p99 cfg.c_large lat_floor cfg.c_small
    (if lat_ok then "PASS" else "FAIL");
  Printf.printf "gate: mean utilization market %.1f%% vs threshold %.1f%% %s\n%!"
    (100. *. large.Common.ch_mean_util)
    (100. *. base.Common.ch_mean_util)
    (if util_ok then "PASS" else "FAIL");
  if not (lat_ok && util_ok) then exit 1
