(* E16 — Multicore scaling of the sharded simulation engine.

   A k-ary fat tree (k = 16: 1024 hosts + 320 switches, each switch
   running a compiled count-min-sketch FlexBPF program) is partitioned
   per pod and driven by seeded per-host Poisson traffic with 80%
   intra-pod locality. The same build runs under 1, 2, 4, and 8 OCaml
   domains; the table reports wall-clock packets/sec and speedup, and
   the hard gate is determinism: the merged Prometheus export must be
   byte-identical for every domain count (the conservative-lookahead
   epochs make domain packing invisible to the model).

   On a host where [Domain.recommended_domain_count () = 1] the speedup
   column is meaningless (the engine warns and flags oversubscription);
   the determinism gate still applies — that is what CI enforces on the
   smoke configuration (E16_SMOKE=1: k = 4, shorter horizon, domains
   {1,2}).

   Results land in BENCH_e16.json, or _smoke/BENCH_e16.json in
   a smoke run, for the CI artifact. *)


type cfg = {
  c_k : int;
  c_until : float; (* simulated seconds *)
  c_lambda : float; (* per-host Poisson rate, pps *)
  c_locality : float; (* fraction of traffic staying intra-pod *)
  c_domains : int list;
}

let smoke () = Sys.getenv_opt "E16_SMOKE" <> None

let out_file () = Common.record_path ~smoke:(smoke ()) "BENCH_e16.json"

let domain_counts ~default () =
  match Sys.getenv_opt "E16_DOMAINS" with
  | Some s ->
    List.filter_map int_of_string_opt (String.split_on_char ',' s)
  | None -> default

let config () =
  if smoke () then
    { c_k = 4; c_until = 0.02; c_lambda = 5_000.; c_locality = 0.8;
      c_domains = domain_counts ~default:[ 1; 2 ] () }
  else
    { c_k = 16; c_until = 0.05; c_lambda = 10_000.; c_locality = 0.8;
      c_domains = domain_counts ~default:[ 1; 2; 4; 8 ] () }

let cms_cfg = { Apps.Cm_sketch.depth = 3; width = 1024; map_name = "cms" }

(* Build one sharded fat tree: a count-min device behind every switch
   and a seeded Poisson source on every host. All seeds key off spec
   node ids, so the workload is identical whatever the partition or
   domain count. *)
let build_net cfg =
  let net =
    Netsim.Shard.Fat_tree.create ~k:cfg.c_k ~core_delay:25e-6 ()
  in
  let spec = Netsim.Shard.Fat_tree.spec net in
  let part = Netsim.Shard.Fat_tree.pods_partition net in
  let shards = Netsim.Shard.partition_shards part in
  let delivered = Array.make shards 0 in
  let sent = Array.make shards 0 in
  let all_hosts = Netsim.Shard.Fat_tree.hosts net in
  let t =
    Netsim.Shard.build spec part ~init:(fun view ->
        let sim = view.Netsim.Shard.sh_sim in
        let shard = view.Netsim.Shard.sh_index in
        (* one count-min device per local switch *)
        let devs = Hashtbl.create 64 in
        Array.iteri
          (fun id slot ->
            match slot with
            | Some node when Netsim.Shard.Spec.kind spec id = Netsim.Node.Switch ->
              let dev =
                Targets.Device.create ~id:node.Netsim.Node.name
                  Targets.Arch.drmt
              in
              let prog = Apps.Cm_sketch.program ~cfg:cms_cfg () in
              List.iteri
                (fun i el ->
                  ignore (Targets.Device.install dev ~ctx:prog ~order:i el))
                prog.Flexbpf.Ast.pipeline;
              Targets.Device.set_obs
                ~labels:[ ("shard", string_of_int shard) ]
                dev
                (Some (Netsim.Sim.obs sim));
              Hashtbl.replace devs id dev
            | _ -> ())
          view.Netsim.Shard.sh_nodes;
        Netsim.Shard.Fat_tree.install net view
          ~on_switch:(fun node pkt ->
            let dev = Hashtbl.find devs node.Netsim.Node.id in
            let now_us =
              Int64.of_float (Netsim.Sim.now sim *. 1e6)
            in
            ignore (Targets.Device.exec dev ~now_us pkt))
          ~on_deliver:(fun _node _pkt ->
            delivered.(shard) <- delivered.(shard) + 1);
        (* seeded Poisson sources on local hosts *)
        Array.iter
          (fun h ->
            match view.Netsim.Shard.sh_nodes.(h) with
            | None -> ()
            | Some host ->
              let gen = Netsim.Traffic.create ~seed:(1000 + h) sim in
              let rng = Random.State.make [| 77; h |] in
              let pod =
                Netsim.Shard.Fat_tree.pod_hosts net
                  (Netsim.Shard.Fat_tree.pod_of_host net h)
              in
              Netsim.Traffic.poisson gen ~lambda:cfg.c_lambda ~start:0.
                ~stop:cfg.c_until ~send:(fun () ->
                  let pick arr =
                    arr.(Random.State.int rng (Array.length arr))
                  in
                  let dst =
                    if Random.State.float rng 1.0 < cfg.c_locality then
                      pick pod
                    else pick all_hosts
                  in
                  if dst <> h then begin
                    sent.(shard) <- sent.(shard) + 1;
                    Netsim.Node.send host ~port:0
                      (Netsim.Traffic.tcp_packet ~src:h ~dst
                         ~sport:(1024 + (h land 0xfff)) ~dport:80
                         ~born:(Netsim.Sim.now sim) ())
                  end))
          all_hosts)
  in
  (t, delivered, sent)

type outcome = {
  o_domains : int;
  o_wall : float;
  o_pps : float;
  o_delivered : int;
  o_stats : Netsim.Shard.run_stats;
  o_export : string;
}

let run_once cfg ~domains =
  let t, delivered, sent = build_net cfg in
  let wall0 = Unix.gettimeofday () in
  let stats = Netsim.Shard.run ~domains ~until:cfg.c_until t in
  let wall = Unix.gettimeofday () -. wall0 in
  let total_delivered = Array.fold_left ( + ) 0 delivered in
  let total_sent = Array.fold_left ( + ) 0 sent in
  ignore total_sent;
  { o_domains = domains; o_wall = wall;
    o_pps = float_of_int total_delivered /. Float.max 1e-9 wall;
    o_delivered = total_delivered; o_stats = stats;
    o_export = Obs.Export.prometheus (Netsim.Shard.merged_metrics t) }

let write_json path cfg ~net_facts ~outcomes ~deterministic ~recommended =
  let k, switches, hosts = net_facts in
  let base = List.find (fun o -> o.o_domains = 1) outcomes in
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"k\": %d,\n  \"switches\": %d,\n  \"hosts\": %d,\n" k
    switches hosts;
  Printf.fprintf oc "  \"sim_seconds\": %g,\n  \"lambda_pps\": %g,\n"
    cfg.c_until cfg.c_lambda;
  Printf.fprintf oc "  \"packets_delivered\": %d,\n" base.o_delivered;
  Printf.fprintf oc "  \"events\": %d,\n" base.o_stats.Netsim.Shard.rs_events;
  Printf.fprintf oc "  \"epochs\": %d,\n" base.o_stats.Netsim.Shard.rs_epochs;
  Printf.fprintf oc "  \"messages\": %d,\n"
    base.o_stats.Netsim.Shard.rs_messages;
  Printf.fprintf oc "  \"recommended_domains\": %d,\n" recommended;
  Printf.fprintf oc "  \"oversubscribed\": %b,\n"
    (List.exists (fun o -> o.o_stats.Netsim.Shard.rs_oversubscribed) outcomes);
  Printf.fprintf oc "  \"throughput_pps\": {\n";
  List.iteri
    (fun i o ->
      Printf.fprintf oc "    \"%d\": %.0f%s\n" o.o_domains o.o_pps
        (if i = List.length outcomes - 1 then "" else ","))
    outcomes;
  Printf.fprintf oc "  },\n  \"speedup\": {\n";
  let non_base = List.filter (fun o -> o.o_domains <> 1) outcomes in
  List.iteri
    (fun i o ->
      Printf.fprintf oc "    \"%d\": %.2f%s\n" o.o_domains
        (o.o_pps /. Float.max 1e-9 base.o_pps)
        (if i = List.length non_base - 1 then "" else ","))
    non_base;
  Printf.fprintf oc "  },\n  \"deterministic\": %b\n}\n" deterministic;
  close_out oc

let run () =
  (* surface the engine's oversubscription warning on stderr *)
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Warning);
  let cfg = config () in
  let recommended = Domain.recommended_domain_count () in
  if recommended = 1 then
    Printf.eprintf
      "E16: this host recommends a single domain; speedups below measure \
       scheduling overhead only (determinism gate still applies)\n%!";
  let net = Netsim.Shard.Fat_tree.create ~k:cfg.c_k () in
  let switches = Netsim.Shard.Fat_tree.switch_count net in
  let hosts = Array.length (Netsim.Shard.Fat_tree.hosts net) in
  let outcomes = List.map (fun d -> run_once cfg ~domains:d) cfg.c_domains in
  let base = List.hd outcomes in
  let deterministic =
    List.for_all (fun o -> String.equal o.o_export base.o_export) outcomes
  in
  Report.print ~id:"E16" ~title:"multicore scaling of the sharded simulator"
    ~claim:
      "per-pod shards on OCaml domains scale packet throughput while \
       conservative-lookahead epochs keep seeded runs byte-identical \
       across domain counts"
    ~header:
      [ "domains"; "wall(s)"; "pkts/sec"; "speedup"; "epochs"; "msgs";
        "spilled"; "oversub" ]
    (List.map
       (fun o ->
         [ Report.i o.o_domains; Report.f2 o.o_wall;
           Printf.sprintf "%.0f" o.o_pps;
           Report.f2 (o.o_pps /. Float.max 1e-9 base.o_pps);
           Report.i o.o_stats.Netsim.Shard.rs_epochs;
           Report.i o.o_stats.Netsim.Shard.rs_messages;
           Report.i o.o_stats.Netsim.Shard.rs_spilled;
           (if o.o_stats.Netsim.Shard.rs_oversubscribed then "yes" else "no") ])
       outcomes);
  Printf.printf
    "network: k=%d fat tree, %d switches (count-min devices), %d hosts\n"
    cfg.c_k switches hosts;
  Printf.printf "deterministic across domain counts: %s\n"
    (if deterministic then "yes" else "NO — exports diverge");
  write_json (out_file ()) cfg ~net_facts:(cfg.c_k, switches, hosts) ~outcomes
    ~deterministic ~recommended;
  Printf.printf "wrote %s\n%!" (out_file ());
  if not deterministic then begin
    (* show the first diverging line to make CI failures actionable *)
    let bad =
      List.find (fun o -> not (String.equal o.o_export base.o_export)) outcomes
    in
    let l1 = String.split_on_char '\n' base.o_export in
    let l2 = String.split_on_char '\n' bad.o_export in
    let rec first_diff i = function
      | a :: ta, b :: tb ->
        if String.equal a b then first_diff (i + 1) (ta, tb)
        else Printf.printf "first divergence (line %d):\n  1 domain : %s\n  %d domains: %s\n" i a bad.o_domains b
      | a :: _, [] -> Printf.printf "divergence: 1-domain export has extra line %d: %s\n" i a
      | [], b :: _ -> Printf.printf "divergence: %d-domain export has extra line %d: %s\n" bad.o_domains i b
      | [], [] -> ()
    in
    first_diff 0 (l1, l2);
    exit 1
  end
