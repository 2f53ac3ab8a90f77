(* Workload [datapath]: the compiled datapath alone, closed loop with
   one caller.

   A seeded Zipf(1.4) destination trace is replayed back to back
   through [Targets.Device.exec] on three dRMT devices, one pipeline
   stage each, so per-stage cost can be attributed from outside:
   - [l2l3]: the infrastructure program with /24 routes covering every
     destination;
   - [cms]: a count-min sketch, depth 3 and width 1024;
   - [tiered]: a 4096-rule exact forwarding table whose device tier
     holds 10% of the rules (E17's setting, so its baselines carry
     over) — the only stage whose lookups leave the device tier.
   [netsim] does no work here. Packet size does not enter datapath
   cost, so one size is used. *)

open Flexbpf.Builder

let rules = 4096
let alpha = 1.4
let batch = 256
let tier_capacity = rules / 10

(* The installed rule maps, which every verdict is checked against. *)
let route_port dst = 1 + ((dst lsr 8) land 7)
let fwd_port dst = 1 + (dst mod 64)

let cms_cfg = { Apps.Cm_sketch.depth = 3; width = 1024; map_name = "cms" }

let tiered_program () =
  program "fwd" ~headers:standard_headers ~parser:standard_parser
    [ table "fwd"
        ~keys:[ exact (field "ipv4" "dst") ]
        ~actions:[ action "fwd" ~params:[ "port" ] [ forward (param "port") ] ]
        ~size:rules () ]

type stage = {
  st_name : string;
  st_span : string; (* the traced run's span name *)
  st_dev : Targets.Device.t;
  st_expect : int array; (* per destination: egress port, -1 = none *)
}

type setup = {
  stages : stage array;
  trace : int array; (* destination per packet, 1-based *)
  pkts : Netsim.Packet.t array; (* one packet per destination *)
  ttls : int64 ref array; (* each packet's ipv4.ttl cell *)
}

let install dev prog =
  List.iteri
    (fun i el ->
      match Targets.Device.install dev ~ctx:prog ~order:i el with
      | Ok _ -> ()
      | Error r ->
        failwith
          (Printf.sprintf "datapath: install %s on %s: %s"
             (Flexbpf.Ast.element_name el) (Targets.Device.id dev)
             (Targets.Device.reject_to_string r)))
    prog.Flexbpf.Ast.pipeline

let make_stages ~corrupt =
  let l2l3 = Targets.Device.create ~id:"l2l3" Targets.Arch.drmt in
  install l2l3 (Apps.L2l3.program ());
  for k = 0 to rules lsr 8 do
    Flexbpf.Interp.install_rule (Targets.Device.env l2l3) "ipv4_lpm"
      (rule ~priority:1
         ~matches:[ lpm_i (k lsl 8) 24 ]
         ~action:("route", [ route_port (k lsl 8) ])
         ())
  done;
  let cms = Targets.Device.create ~id:"cms" Targets.Arch.drmt in
  install cms (Apps.Cm_sketch.program ~cfg:cms_cfg ());
  let tiered = Targets.Device.create ~id:"tiered" Targets.Arch.drmt in
  install tiered (tiered_program ());
  let env = Targets.Device.env tiered in
  for dst = 1 to rules do
    Flexbpf.Interp.install_rule env "fwd"
      (rule ~matches:[ exact_i dst ] ~action:("fwd", [ fwd_port dst ]) ())
  done;
  Flexbpf.Interp.set_tier_capacity env "fwd" tier_capacity;
  List.iter Targets.Device.precompile [ l2l3; cms; tiered ];
  let expect f = Array.init rules (fun i -> f (i + 1)) in
  let l2l3_expect = expect route_port in
  (* the smoke test's deliberately wrong expectation *)
  if corrupt then l2l3_expect.(0) <- l2l3_expect.(0) + 1;
  let stage name dev st_expect =
    { st_name = name; st_span = "flexbpf.exec." ^ name; st_dev = dev; st_expect }
  in
  [| stage "l2l3" l2l3 l2l3_expect; stage "cms" cms (expect (fun _ -> -1));
     stage "tiered" tiered (expect fwd_port) |]

(* The per-layer metrics the traced run produces. *)
let layers =
  [ "flexbpf.exec_ns.l2l3"; "flexbpf.exec_ns.cms"; "flexbpf.exec_ns.tiered";
    "flexbpf.words_per_exec.l2l3"; "flexbpf.words_per_exec.cms";
    "flexbpf.words_per_exec.tiered"; "flexbpf.tier.hit_rate";
    "flexbpf.tier.promotions"; "flexbpf.tier.evictions";
    "flexbpf.tier.demotions" ]

let ok (r : Flexbpf.Interp.result) expect =
  r.Flexbpf.Interp.parse_ok
  && r.Flexbpf.Interp.runtime_error = None
  && (not r.Flexbpf.Interp.verdict.Flexbpf.Interp.dropped)
  &&
  match r.Flexbpf.Interp.verdict.Flexbpf.Interp.egress with
  | None -> expect < 0
  | Some p -> p = expect

let tier_stats st =
  match Targets.Device.tier_stats st.stages.(2).st_dev with
  | [ s ] -> s
  | _ -> failwith "datapath: the tiered stage has no tiered table"

(* Called before a batch's timer starts: l2l3 decrements TTLs in place,
   and a batch may repeat a hot destination. *)
let reset_ttls st ~lo ~hi =
  for i = lo to hi - 1 do
    st.ttls.(st.trace.(i) - 1) := 255L
  done

(* Packets through the three stages stage by stage, one span per
   stage, so each stage's time and allocation are measured at its own
   boundary (the stages share no state). Returns the batch's wall ns and
   failures; adds each stage's minor words to [words]. *)
let run_batch ctx st ~lo ~hi ~words =
  reset_ttls st ~lo ~hi;
  let failed = ref 0 in
  let t0 = Meter.now_ns () in
  Array.iteri
    (fun s stg ->
      let w0 = Meter.minor_words () in
      Meter.span ctx stg.st_span (fun () ->
          for i = lo to hi - 1 do
            let d = st.trace.(i) in
            if
              not
                (ok
                   (Targets.Device.exec stg.st_dev ~now_us:0L st.pkts.(d - 1))
                   stg.st_expect.(d - 1))
            then incr failed
          done);
      words.(s) <- words.(s) +. (Meter.minor_words () -. w0))
    st.stages;
  (Meter.ns_since t0, !failed)

(* One replay of the whole trace — the measurement window. *)
type window = { busy_ns : float; failures : int; batch_us : float list }

(* The tiered table's counters, read at a replay's boundary. *)
let table_counters st () =
  let s = tier_stats st in
  [ ("table.hits", float_of_int s.Flexbpf.Compile.ts_hits);
    ("table.misses", float_of_int s.Flexbpf.Compile.ts_misses);
    ("table.promotions", float_of_int s.Flexbpf.Compile.ts_promotions);
    ("table.evictions", float_of_int s.Flexbpf.Compile.ts_evictions);
    ("table.demotions", float_of_int s.Flexbpf.Compile.ts_demotions) ]

let pass ctx st ~words =
  Meter.span ctx "datapath.replay" ~counters:(table_counters st) (fun () ->
      let n = Array.length st.trace in
      let busy = ref 0. and failed = ref 0 and batch_us = ref [] in
      let lo = ref 0 in
      while !lo < n do
        let hi = min n (!lo + batch) in
        let ns, f = run_batch ctx st ~lo:!lo ~hi ~words in
        batch_us := (ns /. 1000.) :: !batch_us;
        busy := !busy +. ns;
        failed := !failed + f;
        lo := hi
      done;
      { busy_ns = !busy; failures = !failed; batch_us = !batch_us })

let setup ctx =
  (* 2000 batches a replay, so each window's p99 has 20 beyond it *)
  let n_pkts = if ctx.Meter.smoke then 4096 else 2000 * batch in
  let stages = make_stages ~corrupt:ctx.Meter.corrupt in
  let sim = Netsim.Sim.create () in
  let gen = Netsim.Traffic.create ~seed:ctx.Meter.seed sim in
  let draw = Netsim.Traffic.zipf ~alpha gen ~n:rules in
  let trace = Array.init n_pkts (fun _ -> draw ()) in
  let rng = Random.State.make [| ctx.Meter.seed; 17 |] in
  let pkts =
    Array.init rules (fun i ->
        Netsim.Traffic.tcp_packet ~src:(1 + Random.State.int rng 65535)
          ~dst:(i + 1) ~sport:(1024 + Random.State.int rng 60000) ~dport:80
          ~born:0. ())
  in
  let ttls =
    Array.map
      (fun p ->
        match Netsim.Packet.header p "ipv4" with
        | Some h -> List.assoc "ttl" h.Netsim.Packet.fields
        | None -> failwith "datapath: packet without ipv4")
      pkts
  in
  { stages; trace; pkts; ttls }

(* Warm-up replay: caches fill and lazy set-up finishes before timing. *)
let warm_up ctx st =
  ignore (pass { ctx with Meter.tracer = None } st ~words:[| 0.; 0.; 0. |])

let tier_line (s : Flexbpf.Compile.tier_stat) =
  Printf.sprintf "cap=%d resident=%d hits=%d misses=%d promotions=%d evictions=%d demotions=%d"
    s.Flexbpf.Compile.ts_capacity s.Flexbpf.Compile.ts_resident
    s.Flexbpf.Compile.ts_hits s.Flexbpf.Compile.ts_misses
    s.Flexbpf.Compile.ts_promotions s.Flexbpf.Compile.ts_evictions
    s.Flexbpf.Compile.ts_demotions

let run ctx =
  (* several set-ups, median reported; the last one is measured *)
  let setup_s = ref [] and warm_lines = ref [] and last = ref None in
  for _ = 1 to 3 do
    Gc.full_major ();
    let t0 = Meter.now_ns () in
    let st = setup ctx in
    setup_s := Meter.s_since t0 :: !setup_s;
    warm_up ctx st;
    warm_lines := tier_line (tier_stats st) :: !warm_lines;
    last := Some st
  done;
  let st = Option.get !last and warm_lines = !warm_lines in
  let consistent = List.for_all (( = ) (List.hd warm_lines)) warm_lines in
  let n = Array.length st.trace in
  let words = [| 0.; 0.; 0. |] in
  (* the first replay is the exact-count window: allocation and tier
     deltas *)
  let tier0 = tier_stats st in
  let w0 = Meter.minor_words () in
  let first = pass ctx st ~words in
  let heap_mb = Meter.heap_peak_mb () in
  let words_first = Meter.minor_words () -. w0 in
  let tier1 = tier_stats st in
  let rest =
    Meter.repeat_for
      ~seconds:(Float.max 0. (ctx.Meter.seconds -. (first.busy_ns *. 1e-9)))
      (fun _ -> pass ctx st ~words)
  in
  let windows = first :: rest in
  let failed = List.fold_left (fun a w -> a + w.failures) 0 windows in
  let attempted = n * List.length windows in
  let rate = List.map (fun w -> float_of_int n /. (w.busy_ns *. 1e-9)) windows in
  let batch_us = List.concat_map (fun w -> w.batch_us) windows in
  let d f = f tier1 - f tier0 in
  let hits = d (fun s -> s.Flexbpf.Compile.ts_hits)
  and misses = d (fun s -> s.Flexbpf.Compile.ts_misses) in
  let tier_delta =
    Printf.sprintf "hits=%d misses=%d promotions=%d evictions=%d demotions=%d"
      hits misses
      (d (fun s -> s.Flexbpf.Compile.ts_promotions))
      (d (fun s -> s.Flexbpf.Compile.ts_evictions))
      (d (fun s -> s.Flexbpf.Compile.ts_demotions))
  in
  let exec_layers =
    match ctx.Meter.tracer with
    | None -> []
    | Some tr ->
      let by = Meter.Trace.self_by_name tr in
      let pkts_total = float_of_int attempted in
      Array.to_list
        (Array.mapi
           (fun s stg ->
             let ns, _ =
               Option.value ~default:(0., 0)
                 (Hashtbl.find_opt by stg.st_span)
             in
             [ ("flexbpf.exec_ns." ^ stg.st_name, ns /. pkts_total);
               ("flexbpf.words_per_exec." ^ stg.st_name, words.(s) /. pkts_total) ])
           st.stages)
      |> List.concat
  in
  { Meter.attempted; failed; consistent;
    e2e =
      [ ("pkts_per_s", Meter.median rate);
        ("words_per_pkt", words_first /. float_of_int n);
        ("op_us_p50", Meter.quantile batch_us 0.5);
        ("op_us_p99", Meter.quantile batch_us 0.99);
        ("setup_s", Meter.median !setup_s); ("heap_peak_mb", heap_mb) ];
    layers =
      exec_layers
      @ [ ("flexbpf.tier.hit_rate",
           float_of_int hits /. float_of_int (max 1 (hits + misses)));
          ("flexbpf.tier.promotions", float_of_int (d (fun s -> s.Flexbpf.Compile.ts_promotions)));
          ("flexbpf.tier.evictions", float_of_int (d (fun s -> s.Flexbpf.Compile.ts_evictions)));
          ("flexbpf.tier.demotions", float_of_int (d (fun s -> s.Flexbpf.Compile.ts_demotions))) ];
    digest = Digest.to_hex (Digest.string (String.concat "\n" [ List.hd warm_lines; tier_delta ]));
    facts =
      [ ("trace_packets", string_of_int n);
        ("windows", string_of_int (List.length windows));
        ("window_pkts_per_s", String.concat "," (List.map (Printf.sprintf "%.0f") rate));
        ("tier_first_pass", tier_delta);
        ("words_first_pass", Printf.sprintf "%.0f" words_first) ] }
