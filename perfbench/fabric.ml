(* Workload [fabric]: the sharded simulator under open-loop traffic.

   E16's k=8 fat tree (80 count-min switches, 128 hosts) runs as
   per-pod [Netsim.Shard] shards — epochs, mailboxes and all — on one
   domain. Two domains on a two-vCPU host tie every epoch barrier to
   the slower vCPU: over ten runs their throughput spread 0.25 and
   their slice p99 0.36 (interquartile range over median). Every host sends seeded Poisson traffic at
   10k pps of virtual time, 80% of it inside its pod. The event queue,
   links, epochs and mailboxes do most of the work; per-hop
   [Device.exec] is a small share, no table is tiered and no control
   operation runs, so a datapath or tiering gain should show little
   here.

   Sources stop [drain] before the horizon so every packet sent is
   either delivered or counted as a failure. The run advances in
   0.2 ms slices of virtual time; one slice is the workload's
   operation for the latency percentiles (1000 per repetition, so a
   repetition's p99 has 10 slices beyond it). *)

type cfg = { k : int; until : float; drain : float; lambda : float; slice : float }

let full = { k = 8; until = 0.2; drain = 0.01; lambda = 10_000.; slice = 0.0002 }
let smoke = { k = 4; until = 0.02; drain = 0.005; lambda = 5_000.; slice = 0.0002 }
let locality = 0.8
let cms_cfg = { Apps.Cm_sketch.depth = 3; width = 1024; map_name = "cms" }

(* The per-layer metrics the traced run produces. *)
let layers =
  [ "flexbpf.exec_ns.fabric"; "netsim.events_per_pkt"; "netsim.ns_per_event";
    "netsim.run_self_ns_per_pkt"; "netsim.shard.epochs";
    "netsim.shard.msgs_per_epoch"; "netsim.shard.spilled"; "netsim.link.drops" ]

type net = {
  shard_net : Netsim.Shard.t;
  sent : int array; (* per shard *)
  delivered : int array;
  hook_ns : float array; (* traced run: time inside [Device.exec] *)
  hook_calls : int array;
}

let build cfg ~seed ~timed =
  let ft = Netsim.Shard.Fat_tree.create ~k:cfg.k ~core_delay:25e-6 () in
  let spec = Netsim.Shard.Fat_tree.spec ft in
  let part = Netsim.Shard.Fat_tree.pods_partition ft in
  let shards = Netsim.Shard.partition_shards part in
  let sent = Array.make shards 0 and delivered = Array.make shards 0 in
  let hook_ns = Array.make shards 0. and hook_calls = Array.make shards 0 in
  let all_hosts = Netsim.Shard.Fat_tree.hosts ft in
  let shard_net =
    Netsim.Shard.build spec part ~init:(fun view ->
        let sim = view.Netsim.Shard.sh_sim in
        let shard = view.Netsim.Shard.sh_index in
        let devs = Hashtbl.create 64 in
        Array.iteri
          (fun id slot ->
            match slot with
            | Some node when Netsim.Shard.Spec.kind spec id = Netsim.Node.Switch ->
              let dev =
                Targets.Device.create ~id:node.Netsim.Node.name Targets.Arch.drmt
              in
              let prog = Apps.Cm_sketch.program ~cfg:cms_cfg () in
              List.iteri
                (fun i el ->
                  match Targets.Device.install dev ~ctx:prog ~order:i el with
                  | Ok _ -> ()
                  | Error r -> failwith (Targets.Device.reject_to_string r))
                prog.Flexbpf.Ast.pipeline;
              Targets.Device.set_obs
                ~labels:[ ("shard", string_of_int shard) ]
                dev
                (Some (Netsim.Sim.obs sim));
              Targets.Device.precompile dev;
              Hashtbl.replace devs id dev
            | _ -> ())
          view.Netsim.Shard.sh_nodes;
        let exec node pkt =
          let dev = Hashtbl.find devs node.Netsim.Node.id in
          let now_us = Int64.of_float (Netsim.Sim.now sim *. 1e6) in
          ignore (Targets.Device.exec dev ~now_us pkt)
        in
        let on_switch =
          if timed then fun node pkt ->
            let t0 = Meter.now_ns () in
            exec node pkt;
            hook_ns.(shard) <- hook_ns.(shard) +. Meter.ns_since t0;
            hook_calls.(shard) <- hook_calls.(shard) + 1
          else exec
        in
        Netsim.Shard.Fat_tree.install ft view ~on_switch
          ~on_deliver:(fun _ _ -> delivered.(shard) <- delivered.(shard) + 1);
        Array.iter
          (fun h ->
            match view.Netsim.Shard.sh_nodes.(h) with
            | None -> ()
            | Some host ->
              let gen = Netsim.Traffic.create ~seed:((seed * 7919) + h) sim in
              let rng = Random.State.make [| seed; h |] in
              let pod =
                Netsim.Shard.Fat_tree.pod_hosts ft
                  (Netsim.Shard.Fat_tree.pod_of_host ft h)
              in
              Netsim.Traffic.poisson gen ~lambda:cfg.lambda ~start:0.
                ~stop:(cfg.until -. cfg.drain) ~send:(fun () ->
                  let pick arr = arr.(Random.State.int rng (Array.length arr)) in
                  let dst =
                    if Random.State.float rng 1.0 < locality then pick pod
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
  { shard_net; sent; delivered; hook_ns; hook_calls }

let sum = Array.fold_left ( + ) 0

let counter_total m name =
  List.fold_left
    (fun acc (n, _, v) ->
      match v with
      | Obs.Metrics.Counter c when n = name -> acc + c
      | _ -> acc)
    0 (Obs.Metrics.to_list m)

type rep = {
  wall_ns : float; (* inside Shard.run *)
  words : float;
  events : int;
  epochs : int;
  messages : int;
  spilled : int;
  domains : int;
  oversubscribed : bool;
  sent_n : int;
  delivered_n : int;
  link_drops : int;
  hook_total_ns : float;
  hook_total_calls : int;
  export : string;
  slice_us : float list;
}

let run_rep ctx cfg net ~domains =
  let slices = ref [] in
  let w0 = Meter.minor_words () in
  let wall = ref 0. and events = ref 0 and epochs = ref 0 and messages = ref 0
  and spilled = ref 0 and used = ref 1 and over = ref false in
  let steps = int_of_float (Float.round (cfg.until /. cfg.slice)) in
  for i = 1 to steps do
    let until = if i = steps then cfg.until else float_of_int i *. cfg.slice in
    let t0 = Meter.now_ns () in
    let s =
      Meter.span ctx "netsim.shard.run" (fun () ->
          Netsim.Shard.run ~domains ~until net.shard_net)
    in
    let ns = Meter.ns_since t0 in
    slices := (ns /. 1000.) :: !slices;
    wall := !wall +. ns;
    events := !events + s.Netsim.Shard.rs_events;
    epochs := !epochs + s.Netsim.Shard.rs_epochs;
    messages := !messages + s.Netsim.Shard.rs_messages;
    spilled := !spilled + s.Netsim.Shard.rs_spilled;
    used := s.Netsim.Shard.rs_domains;
    over := !over || s.Netsim.Shard.rs_oversubscribed
  done;
  let words = Meter.minor_words () -. w0 in
  let merged = Netsim.Shard.merged_metrics net.shard_net in
  { wall_ns = !wall; words; events = !events; epochs = !epochs;
    messages = !messages; spilled = !spilled; domains = !used;
    oversubscribed = !over; sent_n = sum net.sent;
    delivered_n = sum net.delivered;
    link_drops = counter_total merged "link.drops";
    hook_total_ns = Array.fold_left ( +. ) 0. net.hook_ns;
    hook_total_calls = sum net.hook_calls;
    export = Obs.Export.prometheus merged; slice_us = !slices }

let run ctx =
  let cfg = if ctx.Meter.smoke then smoke else full in
  let domains = 1 in
  let timed = Meter.traced ctx in
  let setup_s = ref [] in
  let setup () =
    Gc.full_major ();
    let t0 = Meter.now_ns () in
    let net = build cfg ~seed:ctx.Meter.seed ~timed in
    setup_s := Meter.s_since t0 :: !setup_s;
    net
  in
  let heap_mb = ref 0. in
  let reps =
    Meter.repeat_for ~seconds:ctx.Meter.seconds (fun i ->
        let net = setup () in
        Option.iter (fun tr -> Meter.Trace.set_run tr i) ctx.Meter.tracer;
        let r =
          Meter.span ctx "fabric.rep"
            ~counters:(fun () ->
              let m = Netsim.Shard.merged_metrics net.shard_net in
              List.map
                (fun n -> (n, float_of_int (counter_total m n)))
                [ "link.tx_packets"; "link.drops"; "link.ecn_marks" ])
            (fun () -> run_rep ctx cfg net ~domains)
        in
        if i = 0 then heap_mb := Meter.heap_peak_mb ();
        r)
  in
  (* set-up takes milliseconds: time it many times *)
  for _ = List.length !setup_s to 14 do
    ignore (setup ())
  done;
  let first = List.hd reps in
  let consistent = List.for_all (fun r -> r.export = first.export) reps in
  let failed = List.fold_left (fun a r -> a + (r.sent_n - r.delivered_n)) 0 reps in
  let attempted = List.fold_left (fun a r -> a + r.sent_n) 0 reps in
  let f = float_of_int in
  let per_rep g = Meter.median (List.map g reps) in
  let slice_us = List.concat_map (fun r -> r.slice_us) reps in
  let layers =
    if not timed then []
    else
      [ ("flexbpf.exec_ns.fabric",
         per_rep (fun r -> r.hook_total_ns /. f (max 1 r.hook_total_calls)));
        ("netsim.events_per_pkt", f first.events /. f first.delivered_n);
        ("netsim.ns_per_event", per_rep (fun r -> r.wall_ns /. f r.events));
        (* domain-ns spent in Shard.run outside the switch hook *)
        ("netsim.run_self_ns_per_pkt",
         per_rep (fun r ->
             ((f r.domains *. r.wall_ns) -. r.hook_total_ns) /. f r.delivered_n));
        ("netsim.shard.epochs", f first.epochs);
        ("netsim.shard.msgs_per_epoch", f first.messages /. f (max 1 first.epochs));
        ("netsim.shard.spilled", f first.spilled);
        ("netsim.link.drops", f first.link_drops) ]
  in
  { Meter.attempted; failed; consistent;
    e2e =
      [ ("pkts_per_s",
         per_rep (fun r -> f r.delivered_n /. (r.wall_ns *. 1e-9)));
        ("words_per_pkt", per_rep (fun r -> r.words /. f r.delivered_n));
        ("op_us_p50", Meter.quantile slice_us 0.5);
        ("op_us_p99", Meter.quantile slice_us 0.99);
        ("setup_s", Meter.median !setup_s); ("heap_peak_mb", !heap_mb) ];
    layers;
    digest = Digest.to_hex (Digest.string first.export);
    facts =
      [ ("domains_used", string_of_int first.domains);
        ("oversubscribed", string_of_bool first.oversubscribed);
        ("fabric_reps", string_of_int (List.length reps));
        ("window_pkts_per_s",
         String.concat ","
           (List.map (fun r -> Printf.sprintf "%.0f" (f r.delivered_n /. (r.wall_ns *. 1e-9))) reps));
        ("sent", string_of_int first.sent_n);
        ("delivered", string_of_int first.delivered_n);
        ("events", string_of_int first.events);
        ("epochs", string_of_int first.epochs);
        ("words_per_rep", String.concat "," (List.map (fun r -> Printf.sprintf "%.0f" r.words) reps)) ] }
