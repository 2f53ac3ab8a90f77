(* FlexNet benchmark entry point.

     perfbench --workload datapath|fabric|churn --seed N --seconds S
               --trace 0|1 [--smoke] [--corrupt] [--nproc N]

   Prints environment facts, the seeded digest and exact counts, then,
   as the last line, one JSON object:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end set; with --trace 1 the run measures half
   its time untraced and half traced, and reports the per-layer set
   plus the tracing overhead on every end-to-end metric. Spans of the
   traced half are written as JSONL under .perfbench/. *)

let end_to_end =
  [ ("pkts_per_s", "1/s"); ("words_per_pkt", "words"); ("op_us_p50", "us");
    ("op_us_p99", "us"); ("setup_s", "s"); ("heap_peak_mb", "MB") ]

(* Every workload prints every per-layer metric, as the result format
   requires. A workload produces exactly the metrics its module lists in
   [layers]; the run fails when it produces any other set, and names the
   ones it does not produce on an "absent:" line, where they read 0. *)
let per_layer =
  [ ("flexbpf.exec_ns.l2l3", "ns"); ("flexbpf.exec_ns.cms", "ns");
    ("flexbpf.exec_ns.tiered", "ns"); ("flexbpf.exec_ns.fabric", "ns");
    ("flexbpf.words_per_exec.l2l3", "words");
    ("flexbpf.words_per_exec.cms", "words");
    ("flexbpf.words_per_exec.tiered", "words");
    ("flexbpf.tier.hit_rate", "ratio"); ("flexbpf.tier.promotions", "count");
    ("flexbpf.tier.evictions", "count"); ("flexbpf.tier.demotions", "count");
    ("flexbpf.compile_ns", "ns"); ("flexbpf.certify_ns", "ns");
    ("netsim.events_per_pkt", "count"); ("netsim.ns_per_event", "ns");
    ("netsim.run_self_ns_per_pkt", "ns"); ("netsim.shard.epochs", "count");
    ("netsim.shard.msgs_per_epoch", "count");
    ("netsim.shard.spilled", "count"); ("netsim.link.drops", "count");
    ("compiler.plan_ns", "ns"); ("compiler.plan_ops", "count");
    ("runtime.reconfig.hitless_ms", "ms"); ("runtime.reconfig.window_s", "s");
    ("runtime.reconfig.attempts", "count");
    ("runtime.reconfig.rolled_back", "count");
    ("control.admit_ns", "ns"); ("control.depart_ns", "ns");
    ("control.outcome.admitted", "count"); ("control.outcome.rejected", "count");
    ("control.outcome.deferred", "count");
    ("control.outcome.preempted", "count"); ("control.mean_util", "ratio");
    ("control.words_per_admit", "words"); ("control.arrivals_per_s", "1/s");
    ("market.clear_self_ns", "ns"); ("market.tatonnement_iters", "count");
    ("market.bidders_per_round", "count"); ("market.converged_share", "ratio");
    ("policy.compile_ns", "ns"); ("policy.fdd_nodes", "count");
    ("policy.deploy_ns", "ns"); ("obs.spans", "count"); ("obs.series", "count");
    ("gc.minor_collections", "count"); ("gc.major_collections", "count");
    ("trace.spans", "count") ]
  @ List.map (fun (n, u) -> ("trace.overhead." ^ n, u)) end_to_end

let workloads =
  [ ("datapath", (Datapath.run, Datapath.layers));
    ("fabric", (Fabric.run, Fabric.layers)); ("churn", (Churn.run, Churn.layers)) ]

(* The tracing metrics, produced below for every workload. *)
let tracing_layers =
  "trace.spans" :: List.map (fun (n, _) -> "trace.overhead." ^ n) end_to_end

let usage () =
  prerr_endline
    "usage: perfbench --workload datapath|fabric|churn --seed N --seconds S \
     --trace 0|1 [--smoke] [--corrupt] [--nproc N]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.)
  and trace = ref (-1) and smoke = ref false and corrupt = ref false
  and nproc = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--nproc" :: v :: rest -> nproc := int_of_string v; parse rest
    | "--smoke" :: rest -> smoke := true; parse rest
    | "--corrupt" :: rest -> corrupt := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run, own_layers =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None -> usage ()
  in
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  let ctx tracer seconds =
    { Meter.seed = !seed; seconds; tracer; smoke = !smoke; corrupt = !corrupt }
  in
  let results, metrics, units =
    if !trace = 0 then begin
      let r = run (ctx None !seconds) in
      ([ r ], r.Meter.e2e, end_to_end)
    end
    else begin
      let plain = run (ctx None (!seconds /. 2.)) in
      let base = plain.Meter.e2e in
      let tr = Meter.Trace.create () in
      let traced = run (ctx (Some tr) (!seconds /. 2.)) in
      let overhead =
        List.map
          (fun (n, v) -> ("trace.overhead." ^ n, v -. List.assoc n base))
          traced.Meter.e2e
      in
      (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
      let path = Printf.sprintf ".perfbench/%s-seed%d.jsonl" !workload !seed in
      Meter.Trace.write_jsonl tr ~run_id:(Printf.sprintf "%s-%d" !workload !seed)
        path;
      Printf.printf "spans: %d written to %s\n" (Meter.Trace.count tr) path;
      let layers =
        traced.Meter.layers
        @ [ ("trace.spans", float_of_int (Meter.Trace.count tr)) ]
        @ overhead
      in
      let produced = List.sort compare (List.map fst layers)
      and expected = List.sort compare (own_layers @ tracing_layers) in
      if
        produced <> expected
        || not (List.for_all (fun n -> List.mem_assoc n per_layer) produced)
      then begin
        Printf.eprintf "perfbench: %s produced per-layer metrics %s; expected %s\n"
          !workload (String.concat ", " produced) (String.concat ", " expected);
        exit 2
      end;
      Printf.printf "absent: %s (not exercised by %s; printed as 0)\n"
        (String.concat ", "
           (List.filter (fun n -> not (List.mem n produced)) (List.map fst per_layer)))
        !workload;
      ([ plain; traced ], layers, per_layer)
    end
  in
  let last = List.nth results (List.length results - 1) in
  List.iter (fun (k, v) -> Printf.printf "%s: %s\n" k v) last.Meter.facts;
  Printf.printf
    "env: {\"nproc\": %d, \"recommended_domains\": %d, \"domains_used\": %s, \
     \"oversubscribed\": %s, \"ocaml\": \"%s\", \"seed\": %d, \"workload\": \
     \"%s\", \"seconds\": %g, \"smoke\": %b}\n"
    !nproc
    (Domain.recommended_domain_count ())
    (Option.value ~default:"1" (List.assoc_opt "domains_used" last.Meter.facts))
    (Option.value ~default:"false"
       (List.assoc_opt "oversubscribed" last.Meter.facts))
    Sys.ocaml_version !seed !workload !seconds !smoke;
  List.iter (fun r -> Printf.printf "digest: %s\n" r.Meter.digest) results;
  let attempted = List.fold_left (fun a r -> a + r.Meter.attempted) 0 results in
  let failed = List.fold_left (fun a r -> a + r.Meter.failed) 0 results in
  let same_digest =
    List.for_all (fun r -> r.Meter.digest = last.Meter.digest) results
  in
  let correct =
    failed = 0 && same_digest && List.for_all (fun r -> r.Meter.consistent) results
  in
  let value name =
    match List.assoc_opt name metrics with
    | Some v when Float.is_finite v -> v
    | Some _ -> failwith ("non-finite metric " ^ name)
    | None -> 0.
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name
              (value name) unit)
          units))
