(* E17 — Tiered match-table virtualization under a Zipf workload.

   A forwarding table with N logical exact-match rules runs through the
   compiled fast path with its device tier bounded to a fraction of N
   (Interp.set_tier_capacity), so most rules live only in the
   authoritative host tier and lookups demand-page winners in. A seeded
   Zipf(alpha) destination stream — the canonical skewed popularity law
   for rule references — drives each capacity point; the flat unbounded
   store is the baseline row.

   Per row: device-tier hits/misses/hit-rate, promotion/eviction/
   demotion counts, the planner's Zipf(1) predicted hit rate
   (Targets.Resource.predicted_miss_rate — a deliberately conservative
   harmonic model), and wall-clock ns/packet with a batched p99.
   Forwarding is verified against the rule map on every packet: the
   tiers must never change where a packet goes, only how long the
   lookup takes.

   Hard gates (CI runs this with E17_SMOKE=1: smaller N, fewer packets,
   a slightly relaxed hit-rate floor):
   - device-tier hit rate at 10% capacity >= 0.90 (0.85 smoke);
   - tiered p99 batch ns/pkt at 10% capacity <= 10x the flat average.

   Results land in BENCH_e17.json, or _smoke/BENCH_e17.json in
   a smoke run, for the CI artifact. *)

open Flexbpf.Builder


type cfg = {
  c_rules : int; (* logical rule count N *)
  c_packets : int;
  c_alpha : float;
  c_fracs : float list; (* device-tier capacity as a fraction of N *)
  c_gate_hit : float; (* min hit rate at the 10% row *)
}

let smoke () = Sys.getenv_opt "E17_SMOKE" <> None

let out_file () = Common.record_path ~smoke:(smoke ()) "BENCH_e17.json"

let config () =
  if smoke () then
    { c_rules = 1024; c_packets = 20_000; c_alpha = 1.4;
      c_fracs = [ 0.02; 0.05; 0.10; 0.20; 0.50 ]; c_gate_hit = 0.85 }
  else
    { c_rules = 4096; c_packets = 200_000; c_alpha = 1.4;
      c_fracs = [ 0.02; 0.05; 0.10; 0.20; 0.50 ]; c_gate_hit = 0.90 }

let table_name = "fwd"
let port_of_dst dst = 1 + (dst mod 64)

let forwarding_program n =
  program "e17" ~headers:standard_headers ~parser:standard_parser
    [ table table_name
        ~keys:[ exact (field "ipv4" "dst") ]
        ~actions:[ action "fwd" ~params:[ "port" ] [ forward (param "port") ] ]
        ~size:n () ]

let install_rules env n =
  for dst = 1 to n do
    Flexbpf.Interp.install_rule env table_name
      (rule ~matches:[ exact_i dst ] ~action:("fwd", [ port_of_dst dst ]) ())
  done

(* One measured run at device-tier capacity [cap] (0 = flat store) over
   the pre-drawn destination stream. A fresh env + compile per row keeps
   tier telemetry and cache warmth independent across rows. *)
type row = {
  r_cap : int;
  r_frac : float;
  r_hits : int;
  r_misses : int;
  r_hit_rate : float;
  r_promotions : int;
  r_evictions : int;
  r_demotions : int;
  r_ns_per_pkt : float;
  r_p99_ns : float; (* p99 over per-batch mean ns/pkt *)
}

let batch = 256

let run_once cfg ~cap ~dsts ~pkts =
  let prog = forwarding_program cfg.c_rules in
  let env = Flexbpf.Interp.create_env prog in
  install_rules env cfg.c_rules;
  if cap > 0 then Flexbpf.Interp.set_tier_capacity env table_name cap;
  let compiled = Flexbpf.Compile.compile env prog in
  let m = Array.length dsts in
  let wrong = ref 0 in
  let batch_ns = ref [] in
  let t0 = ref (Unix.gettimeofday ()) in
  let started = !t0 in
  for i = 0 to m - 1 do
    let dst = dsts.(i) in
    let r = Flexbpf.Compile.run compiled pkts.(dst - 1) in
    if r.Flexbpf.Interp.verdict.Flexbpf.Interp.egress <> Some (port_of_dst dst)
    then incr wrong;
    if (i + 1) mod batch = 0 then begin
      let t1 = Unix.gettimeofday () in
      batch_ns := ((t1 -. !t0) *. 1e9 /. float_of_int batch) :: !batch_ns;
      t0 := t1
    end
  done;
  let total_ns = (Unix.gettimeofday () -. started) *. 1e9 in
  if !wrong > 0 then begin
    Printf.printf
      "E17: FAIL — %d of %d packets forwarded differently at capacity %d\n"
      !wrong m cap;
    exit 1
  end;
  let p99 =
    match List.sort compare !batch_ns with
    | [] -> 0.
    | sorted ->
      let arr = Array.of_list sorted in
      arr.(min (Array.length arr - 1) (Array.length arr * 99 / 100))
  in
  let hits, misses, promos, evicts, demos =
    match Flexbpf.Compile.tier_stats compiled with
    | [ s ] ->
      ( s.Flexbpf.Compile.ts_hits, s.Flexbpf.Compile.ts_misses,
        s.Flexbpf.Compile.ts_promotions, s.Flexbpf.Compile.ts_evictions,
        s.Flexbpf.Compile.ts_demotions )
    | _ -> (0, 0, 0, 0, 0)
  in
  { r_cap = cap;
    r_frac = float_of_int cap /. float_of_int cfg.c_rules;
    r_hits = hits; r_misses = misses;
    r_hit_rate =
      (if hits + misses = 0 then 1.
       else float_of_int hits /. float_of_int (hits + misses));
    r_promotions = promos; r_evictions = evicts; r_demotions = demos;
    r_ns_per_pkt = total_ns /. float_of_int m; r_p99_ns = p99 }

let write_json path cfg ~flat ~rows =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc
    "  \"logical_rules\": %d,\n  \"packets\": %d,\n  \"alpha\": %g,\n"
    cfg.c_rules cfg.c_packets cfg.c_alpha;
  Printf.fprintf oc "  \"flat_ns_per_pkt\": %.1f,\n" flat.r_ns_per_pkt;
  Printf.fprintf oc "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"capacity\": %d, \"fraction\": %.2f, \"hits\": %d, \
         \"misses\": %d, \"hit_rate\": %.4f, \"promotions\": %d, \
         \"evictions\": %d, \"demotions\": %d, \"ns_per_pkt\": %.1f, \
         \"p99_batch_ns\": %.1f}%s\n"
        r.r_cap r.r_frac r.r_hits r.r_misses r.r_hit_rate r.r_promotions
        r.r_evictions r.r_demotions r.r_ns_per_pkt r.r_p99_ns
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

let run () =
  let cfg = config () in
  (* the destination stream is drawn once and replayed for every row, so
     rows differ only in tier capacity *)
  let sim = Netsim.Sim.create () in
  let gen = Netsim.Traffic.create ~seed:1717 sim in
  let draw = Netsim.Traffic.zipf ~alpha:cfg.c_alpha gen ~n:cfg.c_rules in
  let dsts = Array.init cfg.c_packets (fun _ -> draw ()) in
  let pkts =
    Array.init cfg.c_rules (fun i ->
        Netsim.Traffic.tcp_packet ~src:7 ~dst:(i + 1) ~sport:1234 ~dport:80
          ~born:0. ())
  in
  let flat = run_once cfg ~cap:0 ~dsts ~pkts in
  let rows =
    List.map
      (fun frac ->
        let cap =
          Stdlib.max 1
            (int_of_float (frac *. float_of_int cfg.c_rules +. 0.5))
        in
        run_once cfg ~cap ~dsts ~pkts)
      cfg.c_fracs
  in
  let pred_hit r =
    1.
    -. Targets.Resource.predicted_miss_rate ~logical:cfg.c_rules
         ~device:r.r_cap
  in
  Report.print ~id:"E17" ~title:"tiered match-table virtualization"
    ~claim:
      "a bounded device tier demand-paging from the authoritative host \
       tier serves a Zipf rule stream at near-flat speed from a fraction \
       of the match memory — forwarding is byte-identical, only lookup \
       latency changes"
    ~header:
      [ "capacity"; "frac"; "hit-rate"; "pred-hit(zipf1)"; "promoted";
        "evicted"; "ns/pkt"; "p99-batch"; "vs-flat" ]
    (List.map
       (fun r ->
         [ Report.i r.r_cap;
           Printf.sprintf "%.0f%%" (100. *. r.r_frac);
           Printf.sprintf "%.3f" r.r_hit_rate;
           Printf.sprintf "%.3f" (pred_hit r);
           Report.i r.r_promotions; Report.i r.r_evictions;
           Printf.sprintf "%.0f" r.r_ns_per_pkt;
           Printf.sprintf "%.0f" r.r_p99_ns;
           Printf.sprintf "%.2fx"
             (r.r_ns_per_pkt /. Float.max 1e-9 flat.r_ns_per_pkt) ])
       rows
     @ [ [ "flat"; "100%"; "-"; "-"; "-"; "-";
           Printf.sprintf "%.0f" flat.r_ns_per_pkt;
           Printf.sprintf "%.0f" flat.r_p99_ns; "1.00x" ] ]);
  write_json (out_file ()) cfg ~flat ~rows;
  Printf.printf "wrote %s\n%!" (out_file ());
  (* hard gates on the 10% capacity row *)
  let ten =
    List.find
      (fun r -> Float.abs (r.r_frac -. 0.10) < 0.02)
      rows
  in
  let hit_ok = ten.r_hit_rate >= cfg.c_gate_hit in
  let lat_floor = 10. *. Float.max 1e-9 flat.r_ns_per_pkt in
  let lat_ok = ten.r_p99_ns <= lat_floor in
  Printf.printf "gate: hit-rate %.3f at %d/%d capacity (floor %.2f) %s\n"
    ten.r_hit_rate ten.r_cap cfg.c_rules cfg.c_gate_hit
    (if hit_ok then "PASS" else "FAIL");
  Printf.printf "gate: p99 batch %.0f ns/pkt vs 10x flat %.0f %s\n%!"
    ten.r_p99_ns lat_floor
    (if lat_ok then "PASS" else "FAIL");
  if not (hit_ok && lat_ok) then exit 1
