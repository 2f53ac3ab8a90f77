(* flexnet — command-line front end.

   Subcommands:
     archs     print the architecture profiles (fungibility taxonomy)
     apps      certify and summarize the built-in FlexBPF app programs
     certify   parse, typecheck, and certify a .fbpf program file
     demo      bring up a network, deploy, patch hitlessly under traffic
     plan      dry-run a patch: print the cost-annotated plan, execute nothing
     attack    run the elastic DDoS defense scenario
     migrate   run the state-migration comparison
     tables    drive a Zipf stream through a tiered match table, dump telemetry
     market    run seeded bidders through the tenant-economy auction

   Examples:
     dune exec bin/flexnet_cli.exe -- archs
     dune exec bin/flexnet_cli.exe -- demo --arch rmt --switches 5
     dune exec bin/flexnet_cli.exe -- attack --peak 30000 *)

open Cmdliner

let arch_conv =
  let parse s =
    match
      List.find_opt
        (fun k -> Targets.Arch.kind_to_string k = String.lowercase_ascii s)
        Targets.Arch.all_kinds
    with
    | Some k -> Ok k
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown architecture %s (expected: %s)" s
             (String.concat ", "
                (List.map Targets.Arch.kind_to_string Targets.Arch.all_kinds))))
  in
  Arg.conv (parse, fun ppf k -> Fmt.string ppf (Targets.Arch.kind_to_string k))

(* -- archs -------------------------------------------------------------- *)

let archs_cmd =
  let run () =
    Printf.printf "%-14s %-9s %-10s %-10s %-12s %-11s %-8s\n" "architecture"
      "hitless" "lat(ns)" "max-pps" "add-tbl(ms)" "reflash(s)" "watts";
    List.iter
      (fun kind ->
        let p = Targets.Arch.profile_of_kind kind in
        let r = p.Targets.Arch.reconfig in
        Printf.printf "%-14s %-9s %-10.0f %-10.1e %-12.0f %-11.1f %-8.0f\n"
          (Targets.Arch.kind_to_string kind)
          (if r.Targets.Arch.hitless then "yes" else "no")
          (Targets.Arch.latency_ns p ~cycles:50)
          p.Targets.Arch.max_pps
          (1000. *. r.Targets.Arch.t_add_table)
          r.Targets.Arch.t_full_reflash p.Targets.Arch.static_watts)
      Targets.Arch.all_kinds
  in
  Cmd.v (Cmd.info "archs" ~doc:"Print the simulated architecture profiles")
    Term.(const run $ const ())

(* -- apps --------------------------------------------------------------- *)

let apps_cmd =
  let run () =
    let programs =
      [ Apps.L2l3.program ();
        Apps.Firewall.program ();
        Apps.Cm_sketch.program ();
        Apps.Heavy_hitter.program ();
        Apps.Syn_defense.program ();
        Apps.Scrubber.program ();
        Apps.Load_balancer.program ();
        Apps.Nat.program ~public:900 ~subnet_lo:10 ~subnet_hi:20 ();
        Apps.Telemetry.program ();
        Apps.Rate_limiter.program ~rate_pps:1000 ~burst:16 ();
        Apps.Congestion.program
          ~blocks:
            [ Apps.Congestion.reno_block; Apps.Congestion.dctcp_block;
              Apps.Congestion.timely_block () ]
          () ]
    in
    Printf.printf "%-20s %-9s %-8s %-7s %-10s %-10s %-8s\n" "program" "elements"
      "maps" "cycles" "sram(KB)" "tcam(KB)" "status";
    List.iter
      (fun (p : Flexbpf.Ast.program) ->
        match Flexbpf.Analysis.certify p with
        | Ok cert ->
          let fp = cert.Flexbpf.Analysis.cert_footprint in
          Printf.printf "%-20s %-9d %-8d %-7d %-10d %-10d %-8s\n"
            p.Flexbpf.Ast.prog_name
            (List.length p.Flexbpf.Ast.pipeline)
            (List.length p.Flexbpf.Ast.maps)
            cert.Flexbpf.Analysis.cert_cycles
            (fp.Flexbpf.Analysis.sram_bytes / 1024)
            (fp.Flexbpf.Analysis.tcam_bytes / 1024)
            "certified"
        | Error e ->
          Printf.printf "%-20s rejected: %s\n" p.Flexbpf.Ast.prog_name
            (Fmt.str "%a" Flexbpf.Analysis.pp_rejection e))
      programs
  in
  Cmd.v
    (Cmd.info "apps" ~doc:"Certify and summarize the built-in app programs")
    Term.(const run $ const ())

(* -- certify ------------------------------------------------------------- *)

let file_arg =
  Arg.(required & pos 0 (some file) None
       & info [] ~docv:"FILE" ~doc:"FlexBPF surface-syntax program file")

let certify_cmd =
  let run path =
    let src = In_channel.with_open_text path In_channel.input_all in
    match Flexbpf.Syntax.load src with
    | Error e ->
      Printf.eprintf "%s: %s\n" path e;
      exit 1
    | Ok p ->
      (match Flexbpf.Analysis.certify p with
       | Error e ->
         Printf.printf "%s: REJECTED — %s\n" p.Flexbpf.Ast.prog_name
           (Fmt.str "%a" Flexbpf.Analysis.pp_rejection e);
         exit 1
       | Ok cert ->
         let fp = cert.Flexbpf.Analysis.cert_footprint in
         Printf.printf "%s (owner %s): certified\n" p.Flexbpf.Ast.prog_name
           p.Flexbpf.Ast.owner;
         Printf.printf "  worst-case cycles : %d\n" cert.Flexbpf.Analysis.cert_cycles;
         Printf.printf "  sram / tcam       : %d / %d bytes\n"
           fp.Flexbpf.Analysis.sram_bytes fp.Flexbpf.Analysis.tcam_bytes;
         Printf.printf "  elements / maps   : %d / %d\n"
           (List.length p.Flexbpf.Ast.pipeline)
           (List.length p.Flexbpf.Ast.maps);
         (* where could it run? try a single device of each class *)
         Printf.printf "  admissible on     : %s\n"
           (String.concat ", "
              (List.filter_map
                 (fun kind ->
                   let dev =
                     Targets.Device.create (Targets.Arch.profile_of_kind kind)
                   in
                   let ok =
                     List.for_all
                       (fun el ->
                         match
                           Targets.Device.install dev ~ctx:p ~order:0 el
                         with
                         | Ok _ -> true
                         | Error _ -> false)
                       p.Flexbpf.Ast.pipeline
                   in
                   if ok then Some (Targets.Arch.kind_to_string kind) else None)
                 Targets.Arch.all_kinds)))
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:"Parse, typecheck, and certify a FlexBPF program file")
    Term.(const run $ file_arg)

(* -- lint ---------------------------------------------------------------- *)

let severity_conv =
  let parse s =
    match Flexbpf.Diagnostics.severity_of_string s with
    | Some sev -> Ok sev
    | None -> Error (`Msg (Printf.sprintf "unknown severity %s (expected: info, warning, error)" s))
  in
  Arg.conv (parse, Flexbpf.Diagnostics.pp_severity)

let max_severity_arg =
  Arg.(value & opt severity_conv Flexbpf.Diagnostics.Error
       & info [ "max-severity" ] ~docv:"SEV"
           ~doc:"Fail (exit 1) when a finding at or above $(docv) is present \
                 (info, warning, or error)")

let format_arg =
  Arg.(value
       & opt (enum [ ("text", `Text); ("tsv", `Tsv); ("sarif", `Sarif) ]) `Text
       & info [ "format" ] ~docv:"FMT"
           ~doc:"Output format: human-readable $(b,text), tab-separated \
                 $(b,tsv) (code, severity, pass, path, message), or a \
                 $(b,sarif) 2.1.0 log for code-scanning upload")

let explain_arg =
  Arg.(value & opt (some string) None
       & info [ "explain" ] ~docv:"CODE"
           ~doc:"Print the explanation for one diagnostic code (e.g. \
                 FBV051) and exit; no program file is read")

let lint_file_arg =
  Arg.(value & pos 0 (some file) None
       & info [] ~docv:"FILE" ~doc:"FlexBPF surface-syntax program file")

let lint_cmd =
  let run file max_sev format explain =
    match explain with
    | Some code ->
      (match Flexbpf.Verifier.explain code with
       | Some (title, detail) ->
         Printf.printf "%s: %s\n\n%s\n" (String.uppercase_ascii code) title detail;
         exit 0
       | None ->
         Printf.eprintf "unknown diagnostic code %s (known: %s)\n" code
           (String.concat ", "
              (List.map fst Flexbpf.Verifier.explanations));
         exit 2)
    | None ->
      let path =
        match file with
        | Some p -> p
        | None ->
          Printf.eprintf "lint: a program FILE is required (or --explain CODE)\n";
          exit 2
      in
      let src = In_channel.with_open_text path In_channel.input_all in
      (match Flexbpf.Syntax.parse_program_result src with
       | Error e ->
         Printf.eprintf "%s: parse error: %s\n" path e;
         exit 2
       | Ok p ->
         let ds = Flexbpf.Verifier.check p in
         (match format with
          | `Tsv ->
            List.iter (fun d -> print_endline (Flexbpf.Diagnostics.to_tsv d)) ds
          | `Sarif ->
            print_endline (Flexbpf.Diagnostics.to_sarif ~uri:path ds)
          | `Text ->
            List.iter (fun d -> Fmt.pr "%s: %a@." path Flexbpf.Diagnostics.pp d) ds;
            Fmt.pr "%s: %a@." path Flexbpf.Diagnostics.pp_summary ds);
         exit (if Flexbpf.Diagnostics.at_least max_sev ds <> [] then 1 else 0))
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the FlexBPF verifier over a program file. Exit 0 when clean, \
          1 when findings reach --max-severity, 2 on parse failure.")
    Term.(const run $ lint_file_arg $ max_severity_arg $ format_arg $ explain_arg)

(* -- inject -------------------------------------------------------------- *)

let inject_cmd =
  let run path =
    let src = In_channel.with_open_text path In_channel.input_all in
    match Flexbpf.Syntax.load src with
    | Error e ->
      Printf.eprintf "%s: %s\n" path e;
      exit 1
    | Ok ext ->
      let net = Flexnet.create ~arch:Targets.Arch.Drmt ~switches:3 () in
      (match Flexnet.deploy_infrastructure net with
       | Ok _ -> ()
       | Error e -> failwith e);
      Printf.printf "network up; admitting tenant '%s' from %s...\n"
        ext.Flexbpf.Ast.owner path;
      (match Flexnet.add_tenant net ext with
       | Error e ->
         Printf.printf "rejected: %s\n"
           (Fmt.str "%a" Control.Tenants.pp_admission_error e);
         exit 1
       | Ok (tenant, report) ->
         Printf.printf "admitted: vlan %d, %d ops, %.0f ms, devices %s\n"
           tenant.Control.Tenants.vlan
           (Compiler.Plan.size report.Compiler.Incremental.plan)
           (1000. *. report.Compiler.Incremental.duration)
           (String.concat "," report.Compiler.Incremental.touched_devices);
         List.iter
           (fun name ->
             let host =
               List.find_opt
                 (fun d -> List.mem name (Targets.Device.installed_names d))
                 (Flexnet.path net)
             in
             Printf.printf "  %-30s -> %s\n" name
               (match host with
                | Some d -> Targets.Device.id d
                | None -> "(not placed)"))
           tenant.Control.Tenants.element_names;
         let h0 = Flexnet.h0 net and h1 = Flexnet.h1 net in
         for _ = 1 to 50 do
           Flexnet.send_h0 net
             (Netsim.Traffic.tcp_packet ~src:h0.Netsim.Node.id
                ~dst:h1.Netsim.Node.id ~sport:1234 ~dport:80 ~born:0. ())
         done;
         Flexnet.run net ~until:1.0;
         Printf.printf "untagged traffic delivered: %d/50\n"
           (Flexnet.stats net).Flexnet.delivered_h1;
         (match Flexnet.remove_tenant net tenant.Control.Tenants.tenant_name with
          | Ok _ -> Printf.printf "tenant departed cleanly\n"
          | Error e ->
            Printf.printf "departure failed: %s\n"
              (Fmt.str "%a" Control.Tenants.pp_departure_error e)))
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:
         "Admit a .fbpf tenant program into a live network (certify, \
          isolate, place, verify, depart)")
    Term.(const run $ file_arg)

(* -- demo --------------------------------------------------------------- *)

let arch_arg =
  Arg.(value & opt arch_conv Targets.Arch.Drmt
       & info [ "arch" ] ~docv:"ARCH" ~doc:"Switch architecture")

let switches_arg =
  Arg.(value & opt int 3 & info [ "switches" ] ~docv:"N" ~doc:"Switch count")

(* The built-in runtime patch: insert flow telemetry before routing. *)
let telemetry_patch =
  Flexbpf.Patch.v "add-telemetry"
    [ Flexbpf.Patch.Add_map Apps.Telemetry.flow_bytes_map;
      Flexbpf.Patch.Add_element
        (Flexbpf.Patch.Before (Flexbpf.Patch.Sel_name "ipv4_lpm"),
         Apps.Telemetry.flow_counter) ]

(* The demo scenario shared by demo, metrics and trace: deploy the
   infrastructure on [net], send 1000 pps CBR h0 -> h1 for 2 s, and
   apply the telemetry patch hitlessly at t=1. Returns the sent-packet
   count; the caller runs the network. *)
let demo_scenario ?on_done net =
  (match Flexnet.deploy_infrastructure net with
   | Ok _ -> ()
   | Error e -> failwith e);
  let sim = Flexnet.sim net in
  let h0 = Flexnet.h0 net and h1 = Flexnet.h1 net in
  let sent = ref 0 in
  let gen = Netsim.Traffic.create sim in
  Netsim.Traffic.cbr gen ~rate_pps:1000. ~start:0. ~stop:2.0 ~send:(fun () ->
      incr sent;
      Flexnet.send_h0 net
        (Netsim.Traffic.tcp_packet ~src:h0.Netsim.Node.id
           ~dst:h1.Netsim.Node.id ~sport:1234 ~dport:80
           ~born:(Netsim.Sim.now sim) ()));
  Netsim.Sim.at sim 1.0 (fun () ->
      match Flexnet.patch_hitless net telemetry_patch ?on_done with
      | Ok _ -> ()
      | Error e -> Fmt.epr "patch failed: %a@." Compiler.Incremental.pp_error e);
  sent

(* -- plan --------------------------------------------------------------- *)

let plan_cmd =
  let plan_format_arg =
    Arg.(value & opt (enum [ ("table", `Table); ("json", `Json) ]) `Table
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Output format: $(b,table) or $(b,json)")
  in
  let candidates_arg =
    Arg.(value & opt int 3
         & info [ "candidates" ] ~docv:"K"
             ~doc:"Candidate plans to evaluate (min predicted work wins)")
  in
  let plan_file_arg =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"FILE"
             ~doc:"FlexBPF tenant program: plans the arrival patch its \
                   admission would run; without it a built-in telemetry \
                   patch is planned")
  in
  let run arch switches format candidates file =
    let net = Flexnet.create ~arch ~switches () in
    (match Flexnet.deploy_infrastructure net with
     | Ok _ -> ()
     | Error e -> failwith e);
    let dep = Flexnet.deployment_exn net in
    let patch =
      match file with
      | None -> telemetry_patch
      | Some path ->
        let src = In_channel.with_open_text path In_channel.input_all in
        (match Flexbpf.Syntax.load src with
         | Error e ->
           Printf.eprintf "%s: %s\n" path e;
           exit 2
         | Ok ext ->
           (* the patch admission would run, with the VLAN it would
              allocate next *)
           (match
              Flexbpf.Compose.arrival
                ~vlan:(Flexnet.tenants_exn net).Control.Tenants.next_vlan
                ~base:dep.Compiler.Incremental.dep_prog ext
            with
            | Ok patch -> patch
            | Error vs ->
              Fmt.epr "rejected: %a@." Control.Tenants.pp_admission_error
                (Control.Tenants.Access_control vs);
              exit 1))
    in
    (* pure planning only: nothing below touches a device *)
    match Compiler.Incremental.plan_patch ~candidates dep patch with
    | Error e ->
      Fmt.epr "planning failed: %a@." Compiler.Incremental.pp_error e;
      exit 1
    | Ok (pc, _diff) ->
      let report = pc.Compiler.Incremental.ch_report in
      let plan = report.Compiler.Incremental.plan in
      let times_of = Compiler.Plan.times_of_devices (Flexnet.path net) in
      let cost = report.Compiler.Incremental.cost in
      let ck = Compiler.Plan.cost_check pc.Compiler.Incremental.ch_prog in
      (match format with
       | `Table ->
         Printf.printf "plan %s: %d ops, %d candidate(s) evaluated\n"
           plan.Compiler.Plan.plan_name
           (Compiler.Plan.size plan)
           pc.Compiler.Incremental.ch_candidates;
         List.iter
           (fun op ->
             Printf.printf "  %-40s %-10s %6.1f ms\n" (Compiler.Plan.op_name op)
               (Compiler.Plan.op_device op)
               (1000. *. Compiler.Plan.op_time (times_of (Compiler.Plan.op_device op)) op))
           plan.Compiler.Plan.ops;
         Printf.printf "predicted total work : %.1f ms\n"
           (1000. *. report.Compiler.Incremental.total_work);
         Printf.printf "predicted duration   : %.1f ms\n"
           (1000. *. report.Compiler.Incremental.duration);
         Printf.printf "touched devices      : %s\n"
           (String.concat ", " report.Compiler.Incremental.touched_devices);
         List.iter
           (fun (d, r) ->
             Printf.printf
               "  delta %-10s sram %+d B, tcam %+d B, actions %+d, instrs %+d\n"
               d r.Targets.Resource.sram_bytes r.Targets.Resource.tcam_bytes
               r.Targets.Resource.action_slots r.Targets.Resource.instructions)
           cost.Compiler.Plan.c_deltas;
         Fmt.pr "static cost check    : %a@." Compiler.Plan.pp_cost_check ck;
         if ck.Compiler.Plan.ck_divergent then
           Fmt.pr
             "warning: planner heuristic diverges %.1fx from the certified \
              WCET (statically dead branches inflate placement cost)@."
             ck.Compiler.Plan.ck_ratio
       | `Json ->
         let ops =
           String.concat ","
             (List.map
                (fun op ->
                  Printf.sprintf
                    "{\"op\":\"%s\",\"device\":\"%s\",\"time_s\":%.6f}"
                    (Obs.Export.json_escape (Compiler.Plan.op_name op))
                    (Obs.Export.json_escape (Compiler.Plan.op_device op))
                    (Compiler.Plan.op_time (times_of (Compiler.Plan.op_device op)) op))
                plan.Compiler.Plan.ops)
         in
         let deltas =
           String.concat ","
             (List.map
                (fun (d, r) ->
                  Printf.sprintf
                    "{\"device\":\"%s\",\"sram_bytes\":%d,\"tcam_bytes\":%d,\
                     \"action_slots\":%d,\"instructions\":%d}"
                    (Obs.Export.json_escape d) r.Targets.Resource.sram_bytes
                    r.Targets.Resource.tcam_bytes r.Targets.Resource.action_slots
                    r.Targets.Resource.instructions)
                cost.Compiler.Plan.c_deltas)
         in
         Printf.printf
           "{\"plan\":\"%s\",\"candidates\":%d,\"total_work_s\":%.6f,\
            \"duration_s\":%.6f,\"cost_check\":{\"certified\":%d,\
            \"heuristic\":%d,\"ratio\":%.3f,\"divergent\":%b},\
            \"ops\":[%s],\"deltas\":[%s]}\n"
           (Obs.Export.json_escape plan.Compiler.Plan.plan_name)
           pc.Compiler.Incremental.ch_candidates
           report.Compiler.Incremental.total_work
           report.Compiler.Incremental.duration
           ck.Compiler.Plan.ck_certified ck.Compiler.Plan.ck_heuristic
           ck.Compiler.Plan.ck_ratio ck.Compiler.Plan.ck_divergent ops deltas)
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:
         "Dry-run a patch: plan it over resource snapshots and print the \
          cost-annotated reconfiguration plan without executing it")
    Term.(const run $ arch_arg $ switches_arg $ plan_format_arg
          $ candidates_arg $ plan_file_arg)

let demo_cmd =
  let run arch switches =
    let net = Flexnet.create ~arch ~switches () in
    let sent =
      demo_scenario net ~on_done:(fun r ->
          Printf.printf "t=%.3fs: hitless patch done (%.0f ms, devices %s)\n"
            (Netsim.Sim.now (Flexnet.sim net))
            (1000. *. r.Compiler.Incremental.duration)
            (String.concat "," r.Compiler.Incremental.touched_devices))
    in
    let dep = Flexnet.deployment_exn net in
    Printf.printf "deployed %d elements over %d devices\n"
      (List.length dep.Compiler.Incremental.dep_placement.Compiler.Placement.where)
      (List.length (Flexnet.path net));
    Flexnet.run net ~until:3.0;
    let stats = Flexnet.stats net in
    Printf.printf "sent %d, delivered %d, reconfig drops %d\n" !sent
      stats.Flexnet.delivered_h1 stats.Flexnet.reconfig_drops;
    Fmt.pr "%a" Control.Controller.pp_view (Flexnet.controller net)
  in
  Cmd.v
    (Cmd.info "demo"
       ~doc:"Deploy a network, run traffic, and apply a hitless runtime patch")
    Term.(const run $ arch_arg $ switches_arg)

(* -- metrics / trace ----------------------------------------------------- *)

(* Shared observed workload for the metrics/trace subcommands: the demo
   scenario (deploy, CBR traffic, a hitless telemetry patch at t=1)
   plus a burst of dRPC calls, so every instrumented layer contributes
   series and spans. *)
let observed_workload ~arch ~switches =
  let net = Flexnet.create ~arch ~switches () in
  ignore (demo_scenario net);
  let drpc = Flexnet.drpc net in
  Runtime.Drpc.register_standard drpc ~fleet:(Flexnet.path net)
    ~map_name:"flow_bytes";
  Netsim.Sim.at (Flexnet.sim net) 1.5 (fun () ->
      for _ = 1 to 5 do
        Runtime.Drpc.invoke_dataplane drpc "heartbeat" [] ~k:(fun _ -> ())
      done);
  Flexnet.run net ~until:3.0;
  Flexnet.obs net

(* With --shards N the metrics/trace subcommands switch to the
   domain-sharded engine: an N-pod fat tree partitioned per pod with
   seeded Poisson traffic, one OCaml domain per shard. Each shard keeps
   its own registry/trace; the commands print the per-shard breakdown
   and then the merged view (the merge is what a monolithic run would
   have recorded). *)
let sharded_workload ~shards =
  let module Shard = Netsim.Shard in
  let k = max 2 (if shards mod 2 = 0 then shards else shards + 1) in
  let net = Shard.Fat_tree.create ~k ~core_delay:25e-6 () in
  let spec = Shard.Fat_tree.spec net in
  let part = Shard.Fat_tree.pods_partition net in
  let until = 0.01 in
  let t =
    Shard.build spec part ~init:(fun view ->
        let sim = view.Shard.sh_sim in
        Shard.Fat_tree.install net view
          ~on_switch:(fun _ _ -> ())
          ~on_deliver:(fun _ _ -> ());
        Array.iter
          (fun h ->
            match view.Shard.sh_nodes.(h) with
            | None -> ()
            | Some host ->
              let gen = Netsim.Traffic.create ~seed:(100 + h) sim in
              let rng = Random.State.make [| 5; h |] in
              let pod =
                Shard.Fat_tree.pod_hosts net (Shard.Fat_tree.pod_of_host net h)
              in
              let all = Shard.Fat_tree.hosts net in
              Netsim.Traffic.poisson gen ~lambda:5_000. ~start:0. ~stop:until
                ~send:(fun () ->
                  let pick arr =
                    arr.(Random.State.int rng (Array.length arr))
                  in
                  let dst =
                    if Random.State.float rng 1.0 < 0.7 then pick pod
                    else pick all
                  in
                  if dst <> h then
                    Netsim.Node.send host ~port:0
                      (Netsim.Traffic.tcp_packet ~src:h ~dst ~sport:(1024 + h)
                         ~dport:80 ~born:(Netsim.Sim.now sim) ())))
          (Shard.Fat_tree.hosts net))
  in
  ignore (Shard.run ~until t);
  t

let shards_arg =
  Arg.(value & opt int 0
       & info [ "shards" ] ~docv:"N"
           ~doc:
             "Run the domain-sharded fat-tree workload on $(docv) per-pod \
              shards (one OCaml domain each) and show the per-shard \
              breakdown followed by the merged view")

let metrics_cmd =
  let metrics_format_arg =
    Arg.(value
         & opt (enum [ ("table", `Table); ("prometheus", `Prometheus) ]) `Table
         & info [ "format" ] ~docv:"FMT"
             ~doc:
               "Output format: human $(b,table) or $(b,prometheus) text \
                exposition")
  in
  let run arch switches format shards =
    let export m =
      match format with
      | `Table -> Obs.Export.metrics_table m
      | `Prometheus -> Obs.Export.prometheus m
    in
    if shards > 0 then begin
      let t = sharded_workload ~shards in
      List.iter
        (fun v ->
          Printf.printf "== shard %d ==\n" v.Netsim.Shard.sh_index;
          print_string
            (export
               (Obs.Scope.metrics (Netsim.Sim.obs v.Netsim.Shard.sh_sim)));
          print_newline ())
        (Netsim.Shard.views t);
      Printf.printf "== merged (%d shards) ==\n" (Netsim.Shard.shards t);
      print_string (export (Netsim.Shard.merged_metrics t))
    end
    else
      let scope = observed_workload ~arch ~switches in
      print_string (export (Obs.Scope.metrics scope))
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run the demo workload and export the unified metrics registry \
          (counters, gauges, latency histograms); with $(b,--shards) the \
          per-shard registries plus their merge")
    Term.(const run $ arch_arg $ switches_arg $ metrics_format_arg
          $ shards_arg)

let trace_cmd =
  let trace_format_arg =
    Arg.(value & opt (enum [ ("jsonl", `Jsonl); ("table", `Table) ]) `Jsonl
         & info [ "format" ] ~docv:"FMT"
             ~doc:
               "Output format: one JSON object per span ($(b,jsonl)) or a \
                human $(b,table)")
  in
  let run arch switches format shards =
    let export tr =
      match format with
      | `Jsonl -> Obs.Export.trace_jsonl tr
      | `Table -> Obs.Export.trace_table tr
    in
    if shards > 0 then begin
      let t = sharded_workload ~shards in
      List.iter
        (fun v ->
          Printf.printf "== shard %d ==\n" v.Netsim.Shard.sh_index;
          print_string
            (export (Obs.Scope.trace (Netsim.Sim.obs v.Netsim.Shard.sh_sim)));
          print_newline ())
        (Netsim.Shard.views t)
    end
    else
      let scope = observed_workload ~arch ~switches in
      print_string (export (Obs.Scope.trace scope))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the demo workload and dump the reconfiguration/dRPC span \
          trace (deterministic under a fixed seed); with $(b,--shards) one \
          trace per shard including its $(b,shard.run) span")
    Term.(const run $ arch_arg $ switches_arg $ trace_format_arg $ shards_arg)

(* -- attack ------------------------------------------------------------- *)

let peak_arg =
  Arg.(value & opt float 20_000.
       & info [ "peak" ] ~docv:"PPS" ~doc:"Peak attack rate (packets/s)")

let attack_cmd =
  let run peak =
    let net = Flexnet.create ~arch:Targets.Arch.Drmt ~switches:3 () in
    (match Flexnet.deploy_infrastructure net with
     | Ok _ -> ()
     | Error e -> failwith e);
    let sim = Flexnet.sim net in
    let h0 = Flexnet.h0 net and h1 = Flexnet.h1 net in
    let switches = Flexnet.switch_devices net in
    let victim = ref 0 in
    Netsim.Node.set_handler h1 (fun _ ~in_port:_ _ -> incr victim);
    let attack = Netsim.Traffic.create ~seed:3 sim in
    Netsim.Traffic.ramp attack ~peak_pps:peak ~start:0.5 ~ramp_up:1.0 ~hold:1.5
      ~ramp_down:1.0 ~send:(fun () ->
        Netsim.Node.send h0 ~port:0
          (Netsim.Traffic.spoofed_syn attack ~dst:h1.Netsim.Node.id ~dport:80
             ~born:(Netsim.Sim.now sim)));
    let defense = Apps.Syn_defense.program ~threshold:100 () in
    let controller = Flexnet.controller net in
    let uri = Control.Uri.v ~owner:"infra" "syn-defense" in
    ignore
      (Control.Controller.register_app controller ~uri
         ~kind:Control.Controller.Utility ~program:defense ~replicas:[]);
    let replicas = ref 0 in
    let actuate =
      Control.Elastic.app_actuator ~controller ~uri ~devices:switches ()
    in
    let scale_to n =
      let n = min n (List.length switches) in
      actuate n;
      Printf.printf "t=%.2fs: replicas -> %d\n" (Netsim.Sim.now sim) n;
      replicas := n
    in
    let last = ref 0 in
    let sample () =
      if !replicas > 0 then
        Int64.to_float
          (Apps.Syn_defense.syn_rate_of (List.hd switches)
             ~dst:(Int64.of_int h1.Netsim.Node.id)
             ~now_us:(Int64.of_float (Netsim.Sim.now sim *. 1e6)))
        *. 10.
      else begin
        let d = !victim - !last in
        last := !victim;
        float_of_int d *. 10.
      end
    in
    let _ =
      Control.Elastic.create ~sim ~name:"defense" ~min_replicas:0
        ~max_replicas:3 ~cooldown:0.3 ~period:0.1 ~sample
        ~capacity_per_replica:8000. ~scale_to ()
    in
    Flexnet.run net ~until:5.0;
    Printf.printf "victim received %d packets; final replicas %d\n" !victim
      !replicas
  in
  Cmd.v
    (Cmd.info "attack" ~doc:"Run the elastic DDoS defense scenario")
    Term.(const run $ peak_arg)

(* -- migrate ------------------------------------------------------------ *)

let migrate_cmd =
  let run () =
    let cfg = { Apps.Cm_sketch.depth = 3; width = 512; map_name = "cms" } in
    let mk id =
      let dev = Targets.Device.create ~id Targets.Arch.drmt in
      let prog = Apps.Cm_sketch.program ~cfg () in
      List.iteri
        (fun i el -> ignore (Targets.Device.install dev ~ctx:prog ~order:i el))
        prog.Flexbpf.Ast.pipeline;
      dev
    in
    List.iter
      (fun proto ->
        let sim = Netsim.Sim.create () in
        let src = mk "a" and dst = mk "b" in
        let handle = Runtime.Migration.create src in
        let rng = Random.State.make [| 1 |] in
        let sent = ref 0 in
        let gen = Netsim.Traffic.create sim in
        Netsim.Traffic.cbr gen ~rate_pps:50_000. ~start:0. ~stop:1.0
          ~send:(fun () ->
            incr sent;
            let s = Int64.of_int (Random.State.int rng 100) in
            ignore
              (Runtime.Migration.exec handle
                 ~now_us:(Int64.of_float (Netsim.Sim.now sim *. 1e6))
                 (Netsim.Packet.create
                    [ Netsim.Packet.ethernet ~src:s ~dst:1L ();
                      Netsim.Packet.ipv4 ~src:s ~dst:1L ();
                      Netsim.Packet.tcp ~sport:1L ~dport:2L () ])));
        Netsim.Sim.at sim 0.5 (fun () ->
            match proto with
            | `Freeze ->
              Runtime.Migration.freeze_copy ~sim handle ~dst
                ~map_names:[ "cms" ] ()
            | `Swing ->
              Runtime.Migration.swing ~sim handle ~dst ~map_names:[ "cms" ] ());
        ignore (Netsim.Sim.run sim);
        let expected = !sent * cfg.Apps.Cm_sketch.depth in
        let present =
          Int64.to_int
            (Runtime.Migration.map_sum (Runtime.Migration.active handle) "cms")
        in
        Printf.printf "%-12s expected %d, present %d, lost %d\n"
          (match proto with `Freeze -> "freeze-copy" | `Swing -> "swing")
          expected present (expected - present))
      [ `Freeze; `Swing ]
  in
  Cmd.v
    (Cmd.info "migrate" ~doc:"Compare state-migration protocols")
    Term.(const run $ const ())

(* -- tables ------------------------------------------------------------- *)

(* Deterministic tiered-table workload: one exact-match forwarding table
   with N logical rules, the device tier capped at a fraction of N, a
   seeded Zipf destination stream through the compiled fast path. The
   point of the subcommand is to make the tier telemetry inspectable
   without running the full E17 bench. *)

let tables_cmd =
  let rules_arg =
    Arg.(value & opt int 1024
         & info [ "rules" ] ~docv:"N" ~doc:"Logical rule count")
  in
  let capacity_arg =
    Arg.(value & opt (some int) None
         & info [ "capacity" ] ~docv:"C"
             ~doc:"Device-tier capacity in rules (default: 10%% of --rules)")
  in
  let packets_arg =
    Arg.(value & opt int 20_000
         & info [ "packets" ] ~docv:"P" ~doc:"Packets to drive")
  in
  let alpha_arg =
    Arg.(value & opt float 1.4
         & info [ "alpha" ] ~docv:"A" ~doc:"Zipf skew of the workload")
  in
  let tables_format_arg =
    Arg.(value & opt (enum [ ("table", `Table); ("json", `Json) ]) `Table
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Output format: $(b,table) or $(b,json)")
  in
  let run rules cap packets alpha format =
    let open Flexbpf.Builder in
    let rules = Stdlib.max 2 rules in
    let cap =
      match cap with
      | Some c -> Stdlib.max 1 c
      | None -> Stdlib.max 1 (rules / 10)
    in
    let tbl_name = "fwd" in
    let port_of dst = 1 + (dst mod 64) in
    let prog =
      program "tables" ~headers:standard_headers ~parser:standard_parser
        [ table tbl_name
            ~keys:[ exact (field "ipv4" "dst") ]
            ~actions:
              [ action "fwd" ~params:[ "port" ] [ forward (param "port") ] ]
            ~size:rules () ]
    in
    let env = Flexbpf.Interp.create_env prog in
    for dst = 1 to rules do
      Flexbpf.Interp.install_rule env tbl_name
        (rule ~matches:[ exact_i dst ] ~action:("fwd", [ port_of dst ]) ())
    done;
    Flexbpf.Interp.set_tier_capacity env tbl_name cap;
    let compiled = Flexbpf.Compile.compile env prog in
    let sim = Netsim.Sim.create () in
    let gen = Netsim.Traffic.create ~seed:1717 sim in
    let draw = Netsim.Traffic.zipf ~alpha gen ~n:rules in
    let pkts =
      Array.init rules (fun i ->
          Netsim.Traffic.tcp_packet ~src:7 ~dst:(i + 1) ~sport:1234 ~dport:80
            ~born:0. ())
    in
    for _ = 1 to packets do
      ignore (Flexbpf.Compile.run compiled pkts.(draw () - 1))
    done;
    let stats = Flexbpf.Compile.tier_stats compiled in
    let logical_hits =
      Obs.Metrics.get_counter env.Flexbpf.Interp.stats (tbl_name ^ ".hit")
    in
    let logical_misses =
      Obs.Metrics.get_counter env.Flexbpf.Interp.stats (tbl_name ^ ".miss")
    in
    let ratio h m =
      if h + m = 0 then 1. else float_of_int h /. float_of_int (h + m)
    in
    match format with
    | `Table ->
      Printf.printf
        "workload: %d logical rules, device tier %d, %d zipf(%.2f) packets\n"
        rules cap packets alpha;
      Printf.printf "%-8s %-10s %-10s %-10s %-10s %-10s %-9s %-9s %-9s\n"
        "table" "capacity" "resident" "tier-hits" "tier-miss" "hit-ratio"
        "promoted" "evicted" "demoted";
      List.iter
        (fun (s : Flexbpf.Compile.tier_stat) ->
          Printf.printf "%-8s %-10d %-10d %-10d %-10d %-10.4f %-9d %-9d %-9d\n"
            s.Flexbpf.Compile.ts_table s.Flexbpf.Compile.ts_capacity
            s.Flexbpf.Compile.ts_resident s.Flexbpf.Compile.ts_hits
            s.Flexbpf.Compile.ts_misses
            (ratio s.Flexbpf.Compile.ts_hits s.Flexbpf.Compile.ts_misses)
            s.Flexbpf.Compile.ts_promotions s.Flexbpf.Compile.ts_evictions
            s.Flexbpf.Compile.ts_demotions)
        stats;
      Printf.printf
        "logical match hits %d, misses %d (tiering never changes these)\n"
        logical_hits logical_misses;
      Printf.printf "planner predicted hit rate (zipf-1 model): %.4f\n"
        (1.
         -. Targets.Resource.predicted_miss_rate ~logical:rules ~device:cap)
    | `Json ->
      Printf.printf
        "{\"rules\":%d,\"capacity\":%d,\"packets\":%d,\"alpha\":%g,\
         \"predicted_hit_rate\":%.4f,\"logical_hits\":%d,\
         \"logical_misses\":%d,\"tables\":[%s]}\n"
        rules cap packets alpha
        (1.
         -. Targets.Resource.predicted_miss_rate ~logical:rules ~device:cap)
        logical_hits logical_misses
        (String.concat ","
           (List.map
              (fun (s : Flexbpf.Compile.tier_stat) ->
                Printf.sprintf
                  "{\"table\":\"%s\",\"capacity\":%d,\"resident\":%d,\
                   \"hits\":%d,\"misses\":%d,\"hit_ratio\":%.4f,\
                   \"promotions\":%d,\"evictions\":%d,\"demotions\":%d}"
                  (Obs.Export.json_escape s.Flexbpf.Compile.ts_table)
                  s.Flexbpf.Compile.ts_capacity s.Flexbpf.Compile.ts_resident
                  s.Flexbpf.Compile.ts_hits s.Flexbpf.Compile.ts_misses
                  (ratio s.Flexbpf.Compile.ts_hits s.Flexbpf.Compile.ts_misses)
                  s.Flexbpf.Compile.ts_promotions
                  s.Flexbpf.Compile.ts_evictions
                  s.Flexbpf.Compile.ts_demotions)
              stats))
  in
  Cmd.v
    (Cmd.info "tables"
       ~doc:
         "Run a seeded Zipf workload against a tiered match table and \
          report device-tier occupancy, hit/miss ratio, and \
          promotion/eviction counts")
    Term.(const run $ rules_arg $ capacity_arg $ packets_arg $ alpha_arg
          $ tables_format_arg)

(* -- market ------------------------------------------------------------- *)

(* Stateless demo of the tenant economy: bring up a network, enqueue a
   seeded population of bidders (the same program mix as the E18
   workload generator), run clearing rounds, and dump the price books,
   per-tenant standing bids, and auction history. The point is to make
   the market's state inspectable without running the full E18 bench. *)

let market_cmd =
  let tenants_arg =
    Arg.(value & opt int 24
         & info [ "tenants" ] ~docv:"N" ~doc:"Bidders to enqueue")
  in
  let rounds_arg =
    Arg.(value & opt int 8
         & info [ "rounds" ] ~docv:"R" ~doc:"Clearing rounds to run")
  in
  let seed_arg =
    Arg.(value & opt int 31
         & info [ "seed" ] ~docv:"S" ~doc:"Workload seed")
  in
  let market_format_arg =
    Arg.(value & opt (enum [ ("table", `Table); ("json", `Json) ]) `Table
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Output format: $(b,table) or $(b,json)")
  in
  let run switches tenants rounds seed format =
    let net = Flexnet.create ~arch:Targets.Arch.Drmt ~switches () in
    (match Flexnet.deploy_infrastructure net with
     | Ok _ -> ()
     | Error e -> failwith e);
    let tmgr = Flexnet.tenants_exn net in
    (* price the path's tail device: pipeline-order placement packs
       tenant elements onto it, so that pool is the scarce resource *)
    let book_path = [ List.hd (List.rev (Flexnet.path net)) ] in
    let au = Market.Auction.create ~tenants:tmgr ~path:book_path () in
    let rng = Random.State.make [| seed |] in
    for i = 1 to tenants do
      let name = Printf.sprintf "tenant%d" i in
      let program =
        match Random.State.int rng 10 with
        | 0 | 1 -> Apps.Firewall.program ~owner:name ~boundary:100 ()
        | 2 | 3 ->
          Apps.Nat.program ~owner:name ~public:(900 + i) ~subnet_lo:10
            ~subnet_hi:20 ()
        | _ ->
          Apps.Acl.program ~owner:name
            ~size:(65536 lsl Random.State.int rng 5)
            ()
      in
      match
        Market.Tenant.create
          ~sla:
            (if Random.State.int rng 10 = 0 then Market.Tenant.Protected
             else Market.Tenant.Best_effort)
          ~budget:(4. +. Random.State.float rng 12.)
          ~weight:(1.2 +. Random.State.float rng 4.)
          program
      with
      | Error _ -> ()
      | Ok mt -> Market.Auction.submit au mt
    done;
    for _ = 1 to rounds do
      ignore (Market.Auction.clear au)
    done;
    let books = Market.Auction.books au in
    let occ = Market.Auction.occupancy au in
    let adm = Market.Auction.admitted au in
    let replicas_of (a : Market.Auction.admitted) =
      match a.Market.Auction.ad_bid with
      | Some b -> b.Market.Tenant.bid_replicas
      | None -> 1
    in
    match format with
    | `Table ->
      Printf.printf "price books (after %d rounds, %d bidders):\n" rounds
        tenants;
      List.iter
        (fun (arch, book) ->
          let used, cap = List.assoc arch occ in
          Printf.printf "  %-12s %s\n"
            (Targets.Arch.kind_to_string arch)
            (String.concat "  "
               (List.map
                  (fun (k, p) ->
                    Printf.sprintf "%s=%.4f (%.0f/%.0f)"
                      (Market.Prices.rkind_to_string k)
                      p
                      (Market.Prices.units k used)
                      (Market.Prices.units k cap))
                  (Market.Prices.prices book))))
        books;
      Printf.printf "\nadmitted tenants (%d admitted, %d waiting):\n"
        (List.length adm)
        (List.length (Market.Auction.waiting au));
      Printf.printf "  %-10s %-11s %-4s %-9s %-9s %-9s %-9s\n" "tenant" "sla"
        "reps" "price" "spend" "utility" "density";
      List.iter
        (fun (a : Market.Auction.admitted) ->
          let mt = a.Market.Auction.ad_tenant in
          let q = replicas_of a in
          Printf.printf "  %-10s %-11s %-4d %-9.4f %-9.3f %-9.3f %-9.3f\n"
            mt.Market.Tenant.mt_name
            (Market.Tenant.sla_to_string mt.Market.Tenant.mt_sla)
            q a.Market.Auction.ad_price a.Market.Auction.ad_spend
            (Market.Tenant.utility mt q)
            (match a.Market.Auction.ad_bid with
             | Some b -> b.Market.Tenant.bid_density
             | None -> 0.))
        adm;
      Printf.printf "\nclearing history:\n";
      Printf.printf "  %-6s %-6s %-10s %-8s %-9s %-9s %-10s %-9s\n" "round"
        "iters" "converged" "bidders" "admitted" "deferred" "preempted"
        "rejected";
      List.iter
        (fun (r : Market.Auction.round) ->
          Printf.printf "  %-6d %-6d %-10b %-8d %-9d %-9d %-10d %-9d\n"
            r.Market.Auction.rd_index r.Market.Auction.rd_iterations
            r.Market.Auction.rd_converged r.Market.Auction.rd_bidders
            (List.length r.Market.Auction.rd_admitted)
            (List.length r.Market.Auction.rd_deferred)
            (List.length r.Market.Auction.rd_preempted)
            (List.length r.Market.Auction.rd_rejected))
        (Market.Auction.rounds au)
    | `Json ->
      let books_json =
        String.concat ","
          (List.map
             (fun (arch, book) ->
               let used, cap = List.assoc arch occ in
               Printf.sprintf "{\"arch\":\"%s\",\"prices\":{%s},\"used\":{%s},\"capacity\":{%s}}"
                 (Targets.Arch.kind_to_string arch)
                 (String.concat ","
                    (List.map
                       (fun (k, p) ->
                         Printf.sprintf "\"%s\":%.6f"
                           (Market.Prices.rkind_to_string k)
                           p)
                       (Market.Prices.prices book)))
                 (String.concat ","
                    (List.map
                       (fun k ->
                         Printf.sprintf "\"%s\":%.1f"
                           (Market.Prices.rkind_to_string k)
                           (Market.Prices.units k used))
                       Market.Prices.all_rkinds))
                 (String.concat ","
                    (List.map
                       (fun k ->
                         Printf.sprintf "\"%s\":%.1f"
                           (Market.Prices.rkind_to_string k)
                           (Market.Prices.units k cap))
                       Market.Prices.all_rkinds)))
             books)
      in
      let tenants_json =
        String.concat ","
          (List.map
             (fun (a : Market.Auction.admitted) ->
               let mt = a.Market.Auction.ad_tenant in
               let q = replicas_of a in
               Printf.sprintf
                 "{\"tenant\":\"%s\",\"sla\":\"%s\",\"replicas\":%d,\
                  \"price\":%.6f,\"spend\":%.6f,\"utility\":%.6f,\
                  \"density\":%.6f}"
                 (Obs.Export.json_escape mt.Market.Tenant.mt_name)
                 (Market.Tenant.sla_to_string mt.Market.Tenant.mt_sla)
                 q a.Market.Auction.ad_price a.Market.Auction.ad_spend
                 (Market.Tenant.utility mt q)
                 (match a.Market.Auction.ad_bid with
                  | Some b -> b.Market.Tenant.bid_density
                  | None -> 0.))
             adm)
      in
      let rounds_json =
        String.concat ","
          (List.map
             (fun (r : Market.Auction.round) ->
               Printf.sprintf
                 "{\"round\":%d,\"iterations\":%d,\"converged\":%b,\
                  \"bidders\":%d,\"admitted\":%d,\"deferred\":%d,\
                  \"preempted\":%d,\"rejected\":%d}"
                 r.Market.Auction.rd_index r.Market.Auction.rd_iterations
                 r.Market.Auction.rd_converged r.Market.Auction.rd_bidders
                 (List.length r.Market.Auction.rd_admitted)
                 (List.length r.Market.Auction.rd_deferred)
                 (List.length r.Market.Auction.rd_preempted)
                 (List.length r.Market.Auction.rd_rejected))
             (Market.Auction.rounds au))
      in
      Printf.printf
        "{\"bidders\":%d,\"rounds_run\":%d,\"admitted\":%d,\"waiting\":%d,\
         \"books\":[%s],\"tenants\":[%s],\"rounds\":[%s]}\n"
        tenants rounds (List.length adm)
        (List.length (Market.Auction.waiting au))
        books_json tenants_json rounds_json
  in
  Cmd.v
    (Cmd.info "market"
       ~doc:
         "Run a seeded bidder population through the tenant-economy \
          auction and report per-architecture resource prices, admitted \
          tenants' standing bids/spend/utility, and the clearing-round \
          history")
    Term.(const run $ switches_arg $ tenants_arg $ rounds_arg $ seed_arg
          $ market_format_arg)

(* -- policy ------------------------------------------------------------- *)

let pattern_str = function
  | Flexbpf.Ast.P_exact v -> Int64.to_string v
  | Flexbpf.Ast.P_any -> "*"
  | Flexbpf.Ast.P_lpm (v, l) -> Printf.sprintf "%Ld/%d" v l
  | Flexbpf.Ast.P_ternary (v, m) -> Printf.sprintf "%Ld&%Ld" v m
  | Flexbpf.Ast.P_range (a, b) -> Printf.sprintf "%Ld-%Ld" a b

let load_policy path =
  let src = In_channel.with_open_text path In_channel.input_all in
  match Policy.Syntax.parse_result src with
  | Error e ->
    Printf.eprintf "%s: parse error: %s\n" path e;
    exit 2
  | Ok pol -> pol

let pol_format_arg =
  Arg.(value & opt (enum [ ("table", `Table); ("json", `Json) ]) `Table
       & info [ "format" ] ~docv:"FMT"
           ~doc:"Output format: $(b,table) or $(b,json)")

let pol_file_arg =
  Arg.(required & pos 0 (some file) None
       & info [] ~docv:"FILE" ~doc:"Policy source (.pol)")

let rules_json rules =
  String.concat ","
    (List.map
       (fun (r : Flexbpf.Ast.rule) ->
         Printf.sprintf
           "{\"priority\":%d,\"matches\":[%s],\"action\":\"%s\"}"
           r.Flexbpf.Ast.rule_priority
           (String.concat ","
              (List.map
                 (fun p -> Printf.sprintf "\"%s\"" (pattern_str p))
                 r.Flexbpf.Ast.matches))
           (Obs.Export.json_escape r.Flexbpf.Ast.rule_action))
       rules)

let policy_compile_cmd =
  let switches_arg =
    Arg.(value & opt int 2
         & info [ "switches" ] ~docv:"N"
             ~doc:"Slice the policy for switches 0..N-1")
  in
  let run file format switches =
    let pol = load_policy file in
    let devices =
      List.init switches (fun i -> (Printf.sprintf "s%d" i, Int64.of_int i))
    in
    match Policy.Compile.compile ~name:"policy" ~devices pol with
    | Error e ->
      Printf.eprintf "%s: %s\n" file (Policy.Compile.error_to_string e);
      exit 1
    | Ok lowered ->
      (match format with
       | `Table ->
         List.iter
           (fun (dev, lw) ->
             Fmt.pr "== %s (sw = %Ld) ==@." dev lw.Policy.Compile.lw_sw;
             print_string (Flexbpf.Syntax.print lw.Policy.Compile.lw_prog);
             List.iter
               (fun (tbl, rules) ->
                 Fmt.pr "rules[%s]:@." tbl;
                 List.iter
                   (fun (r : Flexbpf.Ast.rule) ->
                     Fmt.pr "  %3d  %-24s -> %s@." r.Flexbpf.Ast.rule_priority
                       (String.concat ", "
                          (List.map pattern_str r.Flexbpf.Ast.matches))
                       r.Flexbpf.Ast.rule_action)
                   rules)
               lw.Policy.Compile.lw_rules)
           lowered
       | `Json ->
         Printf.printf "{\"policy\":\"%s\",\"devices\":[%s]}\n"
           (Obs.Export.json_escape (Policy.Syntax.print pol))
           (String.concat ","
              (List.map
                 (fun (dev, lw) ->
                   Printf.sprintf
                     "{\"device\":\"%s\",\"sw\":%Ld,\"program\":\"%s\",\
                      \"rules\":{%s}}"
                     (Obs.Export.json_escape dev) lw.Policy.Compile.lw_sw
                     (Obs.Export.json_escape
                        (Flexbpf.Syntax.print lw.Policy.Compile.lw_prog))
                     (String.concat ","
                        (List.map
                           (fun (tbl, rules) ->
                             Printf.sprintf "\"%s\":[%s]"
                               (Obs.Export.json_escape tbl) (rules_json rules))
                           lw.Policy.Compile.lw_rules)))
                 lowered)));
      exit 0
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Slice a policy per switch and print the lowered FlexBPF \
          program and rule set for each. Exit 0 on success, 1 when the \
          policy does not lower, 2 on parse failure.")
    Term.(const run $ pol_file_arg $ pol_format_arg $ switches_arg)

let policy_check_cmd =
  let run file format =
    let pol = load_policy file in
    match Policy.Compile.check pol with
    | Error e ->
      Printf.eprintf "%s: %s\n" file (Policy.Compile.error_to_string e);
      exit 1
    | Ok rp ->
      (match format with
       | `Table ->
         Fmt.pr "policy    %s@." (Policy.Syntax.print pol);
         Fmt.pr "fields    %s@."
           (String.concat ", "
              (List.map Policy.Ast.field_name rp.Policy.Compile.rp_fields));
         Fmt.pr "fdd size  %d nodes@." rp.Policy.Compile.rp_fdd_size;
         Fmt.pr "switches  %s@."
           (if rp.Policy.Compile.rp_switches = [] then "(uniform)"
            else
              String.concat ", "
                (List.map Int64.to_string rp.Policy.Compile.rp_switches));
         List.iter
           (fun (sw, n) ->
             if sw = -1L then Fmt.pr "  sw *   %4d rules@." n
             else Fmt.pr "  sw %-3Ld %4d rules@." sw n)
           rp.Policy.Compile.rp_rules
       | `Json ->
         Printf.printf
           "{\"policy\":\"%s\",\"fields\":[%s],\"fdd_size\":%d,\
            \"switches\":[%s],\"rules\":[%s]}\n"
           (Obs.Export.json_escape (Policy.Syntax.print pol))
           (String.concat ","
              (List.map
                 (fun f -> Printf.sprintf "\"%s\"" (Policy.Ast.field_name f))
                 rp.Policy.Compile.rp_fields))
           rp.Policy.Compile.rp_fdd_size
           (String.concat ","
              (List.map Int64.to_string rp.Policy.Compile.rp_switches))
           (String.concat ","
              (List.map
                 (fun (sw, n) ->
                   Printf.sprintf "{\"sw\":%Ld,\"rules\":%d}" sw n)
                 rp.Policy.Compile.rp_rules)));
      exit 0
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Validate and normalize a policy; print the fields it touches, \
          its FDD size, and per-switch rule counts. Exit 0 when it \
          lowers everywhere, 1 otherwise, 2 on parse failure.")
    Term.(const run $ pol_file_arg $ pol_format_arg)

let policy_cmd =
  Cmd.group
    (Cmd.info "policy"
       ~doc:
         "Compile and check NetKAT-style policy terms (.pol) against \
          the FlexBPF datapath")
    [ policy_compile_cmd; policy_check_cmd ]

let () =
  let info =
    Cmd.info "flexnet" ~version:"0.1.0"
      ~doc:"Runtime programmable network (FlexNet) scenario runner"
  in
  exit
    (Cmd.eval
       (Cmd.group info [ archs_cmd; apps_cmd; certify_cmd; lint_cmd; inject_cmd;
          demo_cmd; plan_cmd; metrics_cmd; trace_cmd; attack_cmd;
          migrate_cmd; tables_cmd; market_cmd; policy_cmd ]))
