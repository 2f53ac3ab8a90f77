(* Bechamel microbenchmarks for the hot paths underneath the
   experiments: per-packet interpretation (reference interpreter vs the
   closure-compiled fast path), sketch updates, map encodings, rule
   matching, event-queue churn, a link hop, and placement.

   The interpreter benchmarks come in reference/compiled pairs; after
   the raw ns/op table a speedup section reports compiled-path gains.
   [run ~quota ~out ()] supports a short CI quota and a JSON dump of
   the estimates (see BENCH_micro.json for the checked-in baseline). *)

open Bechamel
open Toolkit

let mk_packet () =
  Netsim.Packet.create
    [ Netsim.Packet.ethernet ~src:1L ~dst:2L ();
      Netsim.Packet.ipv4 ~src:1L ~dst:2L ();
      Netsim.Packet.tcp ~sport:100L ~dport:200L () ]

(* Reference/compiled pairs share a program shape but get separate envs
   so map mutations in one engine cannot warm or skew the other. *)

let l2l3_env () =
  let prog = Apps.L2l3.program () in
  let env = Flexbpf.Interp.create_env prog in
  Flexbpf.Interp.install_rule env "ipv4_lpm"
    (Apps.L2l3.route_rule ~host_id:2 ~port:1);
  (prog, env)

let test_interp_table =
  let prog, env = l2l3_env () in
  let pkt = mk_packet () in
  Test.make ~name:"interp: l2l3 pipeline per packet" (Staged.stage (fun () ->
      ignore (Flexbpf.Interp.run env prog pkt)))

let test_compiled_table =
  let prog, env = l2l3_env () in
  let compiled = Flexbpf.Compile.compile env prog in
  let pkt = mk_packet () in
  Test.make ~name:"compiled: l2l3 pipeline per packet" (Staged.stage (fun () ->
      ignore (Flexbpf.Compile.run compiled pkt)))

let cms_cfg = { Apps.Cm_sketch.depth = 3; width = 1024; map_name = "cms" }

let test_sketch_update =
  let prog = Apps.Cm_sketch.program ~cfg:cms_cfg () in
  let env = Flexbpf.Interp.create_env prog in
  let pkt = mk_packet () in
  Test.make ~name:"interp: count-min update (3 rows)" (Staged.stage (fun () ->
      ignore (Flexbpf.Interp.run env prog pkt)))

let test_compiled_sketch_update =
  let prog = Apps.Cm_sketch.program ~cfg:cms_cfg () in
  let env = Flexbpf.Interp.create_env prog in
  let compiled = Flexbpf.Compile.compile env prog in
  let pkt = mk_packet () in
  Test.make ~name:"compiled: count-min update (3 rows)" (Staged.stage (fun () ->
      ignore (Flexbpf.Compile.run compiled pkt)))

(* -- Static WCET certificate vs measured work ---------------------------- *)

(* Replay the interpreter benchmark pairs with the work meter
   ([Interp.env.work], same per-statement weights as the certificate)
   and compare per-packet executed work units against the certified
   static WCET ([Dataflow.Cost]). The certificate is a worst-case
   bound, so measured <= certified must hold; the ablation also checks
   the bound is tight — within 2x of what these workloads actually
   execute (see EXPERIMENTS.md). *)
let static_cost_ablation () =
  let cases =
    [ ("l2l3 pipeline", fun () -> l2l3_env ());
      ( "count-min update (3 rows)",
        fun () ->
          let prog = Apps.Cm_sketch.program ~cfg:cms_cfg () in
          (prog, Flexbpf.Interp.create_env prog) ) ]
  in
  print_endline "\n-- static WCET certificate vs measured work (interp) --";
  List.iter
    (fun (name, mk) ->
      let prog, env = mk () in
      let pkt = mk_packet () in
      let runs = 1000 in
      let before = env.Flexbpf.Interp.work in
      for _ = 1 to runs do
        ignore (Flexbpf.Interp.run env prog pkt)
      done;
      let measured =
        float_of_int (env.Flexbpf.Interp.work - before) /. float_of_int runs
      in
      let cert =
        (Flexbpf.Dataflow.Cost.analyze prog).Flexbpf.Dataflow.Cost.cc_certified
      in
      let ratio = float_of_int cert /. Float.max 1e-9 measured in
      let sound = measured <= float_of_int cert +. 1e-9 in
      let tight = ratio <= 2.0 +. 1e-9 in
      Printf.printf
        "%-42s certified %3d  measured %6.1f  bound %.2fx %s\n" name cert
        measured ratio
        (match (sound, tight) with
         | true, true -> "(sound, within 2x)"
         | true, false -> "(sound, LOOSE)"
         | false, _ -> "(UNSOUND)"))
    cases

(* (reference, compiled) benchmark names reported as speedups. *)
let speedup_pairs =
  [ ("interp: l2l3 pipeline per packet", "compiled: l2l3 pipeline per packet");
    ("interp: count-min update (3 rows)", "compiled: count-min update (3 rows)");
    ( "event queue: boxed-record heap push+pop x64",
      "event queue: push+pop x64" ) ]

let state_bench enc name =
  let st = Flexbpf.State.create ~name:"m" ~size:4096 enc in
  let i = ref 0L in
  Test.make ~name (Staged.stage (fun () ->
      i := Int64.rem (Int64.add !i 7L) 4096L;
      ignore (Flexbpf.State.incr st [| !i |] 1L)))

let test_state_registers = state_bench Flexbpf.State.Registers "state: registers incr"
let test_state_flow = state_bench Flexbpf.State.Flow_state "state: flow_state incr"
let test_state_stateful =
  state_bench Flexbpf.State.Stateful_table "state: stateful_table incr"

(* Reference implementation for the event-queue pair: the boxed-record
   binary heap the engine used before the flat float-array layout. Each
   element is a 3-field record, so every comparison chases a pointer and
   loads a boxed-ish float; kept here (not in netsim) purely as the
   baseline side of the speedup measurement. *)
module Boxed_queue = struct
  type event = { time : float; seq : int; thunk : unit -> unit }
  type t = { mutable heap : event array; mutable size : int }

  let dummy = { time = infinity; seq = 0; thunk = ignore }
  let create () = { heap = Array.make 64 dummy; size = 0 }
  let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let push t e =
    if t.size = Array.length t.heap then begin
      let h = Array.make (2 * t.size) dummy in
      Array.blit t.heap 0 h 0 t.size;
      t.heap <- h
    end;
    t.heap.(t.size) <- e;
    t.size <- t.size + 1;
    let i = ref (t.size - 1) in
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      before t.heap.(!i) t.heap.(p)
    do
      let p = (!i - 1) / 2 in
      let tmp = t.heap.(p) in
      t.heap.(p) <- t.heap.(!i);
      t.heap.(!i) <- tmp;
      i := p
    done

  let pop t =
    if t.size = 0 then None
    else begin
      let root = t.heap.(0) in
      t.size <- t.size - 1;
      t.heap.(0) <- t.heap.(t.size);
      t.heap.(t.size) <- dummy;
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let m = ref !i in
        if l < t.size && before t.heap.(l) t.heap.(!m) then m := l;
        if r < t.size && before t.heap.(r) t.heap.(!m) then m := r;
        if !m = !i then continue := false
        else begin
          let tmp = t.heap.(!m) in
          t.heap.(!m) <- t.heap.(!i);
          t.heap.(!i) <- tmp;
          i := !m
        end
      done;
      Some root
    end
end

let test_event_queue_boxed =
  Test.make ~name:"event queue: boxed-record heap push+pop x64"
    (Staged.stage (fun () ->
         let q = Boxed_queue.create () in
         for i = 0 to 63 do
           Boxed_queue.push q
             { Boxed_queue.time = float_of_int (i * 7919 mod 64); seq = i;
               thunk = ignore }
         done;
         while Boxed_queue.pop q <> None do () done))

let test_event_queue =
  Test.make ~name:"event queue: push+pop x64" (Staged.stage (fun () ->
      let q = Netsim.Event_queue.create () in
      for i = 0 to 63 do
        Netsim.Event_queue.push q ~time:(float_of_int (i * 7919 mod 64)) ~seq:i i
      done;
      while not (Netsim.Event_queue.is_empty q) do
        ignore (Netsim.Event_queue.pop_exn q : int)
      done))

(* One simulated hop on an idle link: the transmit and its arrival
   event, run to completion. *)
let test_link_hop =
  let sim = Netsim.Sim.create () in
  let link = Netsim.Link.create ~sim ~name:"l" () in
  let pkt = mk_packet () in
  Test.make ~name:"link hop: transmit+arrival" (Staged.stage (fun () ->
      ignore (Netsim.Link.transmit link pkt : bool);
      ignore (Netsim.Sim.run sim : int)))

let test_placement =
  Test.make ~name:"compiler: place 20-table program" (Staged.stage (fun () ->
      let path = Common.mk_path ~switches:3 () in
      let prog =
        Flexbpf.Builder.program "p"
          (List.init 20 (fun i -> Common.exact_table ~size:512 (Printf.sprintf "t%d" i)))
      in
      match Runtime.Reconfig.place ~path prog with
      | Ok _ -> ()
      | Error _ -> ()))

let test_patch_apply =
  let base = Apps.L2l3.program () in
  let patch =
    Flexbpf.Patch.v "p"
      [ Flexbpf.Patch.Replace_element
          (Flexbpf.Patch.Sel_name "ttl_guard", Apps.L2l3.ttl_guard) ]
  in
  Test.make ~name:"patch: apply+typecheck" (Staged.stage (fun () ->
      ignore (Flexbpf.Patch.apply patch base)))

let benchmarks =
  [ test_interp_table; test_compiled_table; test_sketch_update;
    test_compiled_sketch_update; test_state_registers; test_state_flow;
    test_state_stateful; test_event_queue_boxed; test_event_queue;
    test_link_hop; test_placement; test_patch_apply ]

let strip_group name =
  String.concat "" (String.split_on_char '/' name |> List.tl)

let write_json path estimates speedups =
  let oc = open_out path in
  output_string oc "{\n  \"ns_per_op\": {\n";
  List.iteri
    (fun i (name, est) ->
      Printf.fprintf oc "    \"%s\": %.1f%s\n"
        (Obs.Export.json_escape name) est
        (if i = List.length estimates - 1 then "" else ","))
    estimates;
  output_string oc "  },\n  \"speedup\": {\n";
  List.iteri
    (fun i (name, x) ->
      Printf.fprintf oc "    \"%s\": %.2f%s\n"
        (Obs.Export.json_escape name) x
        (if i = List.length speedups - 1 then "" else ","))
    speedups;
  output_string oc "  }\n}\n";
  close_out oc

(* -- Regression gate ---------------------------------------------------- *)

(* Parse the "speedup" section of a BENCH_micro.json baseline. The file
   is our own write_json output, so a line-oriented scan is enough (no
   JSON library in the container): entries look like
     "interp: l2l3 pipeline per packet": 5.52,
   inside the object that follows the "speedup" key. *)
let read_baseline_speedups path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  let in_speedup = ref false in
  let entries = ref [] in
  List.iter
    (fun line ->
      let line = String.trim line in
      if String.length line >= 9 && String.sub line 0 9 = "\"speedup\"" then
        in_speedup := true
      else if !in_speedup then
        if line = "}" || line = "}," then in_speedup := false
        else
          (* "name": value[,] *)
          match String.index_opt line '"' with
          | Some 0 ->
            (match String.index_from_opt line 1 '"' with
             | Some close ->
               let name = String.sub line 1 (close - 1) in
               let rest = String.sub line (close + 1) (String.length line - close - 1) in
               let num =
                 String.trim rest |> fun s ->
                 (if String.length s > 0 && s.[0] = ':' then
                    String.sub s 1 (String.length s - 1)
                  else s)
                 |> String.trim
                 |> fun s ->
                 if String.length s > 0 && s.[String.length s - 1] = ',' then
                   String.sub s 0 (String.length s - 1)
                 else s
               in
               (match float_of_string_opt num with
                | Some v -> entries := (name, v) :: !entries
                | None -> ())
             | None -> ())
          | _ -> ())
    lines;
  List.rev !entries

(* Compare measured speedups against a checked-in baseline. A benchmark
   regresses when its compiled-vs-interpreter speedup falls below
   baseline * (1 - tolerance); missing measurements also fail so a
   silently-dropped pair cannot green the gate. Returns true iff all
   baseline entries pass. *)
let check_speedups ~baseline_path ~tolerance measured =
  let baseline = read_baseline_speedups baseline_path in
  if baseline = [] then begin
    Printf.printf "bench gate: no speedup entries found in %s\n" baseline_path;
    false
  end
  else begin
    Printf.printf "\n-- bench regression gate (tolerance %.0f%%) --\n"
      (tolerance *. 100.);
    List.fold_left
      (fun ok (name, base) ->
        let floor = base *. (1. -. tolerance) in
        match List.assoc_opt name measured with
        | Some m when m >= floor ->
          Printf.printf "PASS %-42s %.2fx (baseline %.2fx, floor %.2fx)\n"
            name m base floor;
          ok
        | Some m ->
          Printf.printf "FAIL %-42s %.2fx < floor %.2fx (baseline %.2fx)\n"
            name m floor base;
          false
        | None ->
          Printf.printf "FAIL %-42s not measured (baseline %.2fx)\n" name base;
          false)
      true baseline
  end

(** [quota] is seconds of measurement per benchmark (default 0.5; CI
    uses a shorter one). [out] dumps estimates and speedups as JSON.
    [check] compares measured speedups against a baseline JSON and
    exits non-zero past [tolerance] (default 0.35) — the CI bench
    regression gate. *)
let run ?(quota = 0.5) ?out ?check ?(tolerance = 0.35) () =
  print_endline "\n== microbenchmarks (bechamel) ==";
  static_cost_ablation ();
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second quota) ~kde:(Some 1000) ()
  in
  let estimates = ref [] in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ])
      in
      let results =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                       ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] ->
            let name = strip_group name in
            estimates := (name, est) :: !estimates;
            Printf.printf "%-42s %12.1f ns/op\n" name est
          | _ -> Printf.printf "%-42s (no estimate)\n" name)
        results)
    benchmarks;
  let estimates = List.rev !estimates in
  let speedups =
    List.filter_map
      (fun (ref_name, fast_name) ->
        match (List.assoc_opt ref_name estimates,
               List.assoc_opt fast_name estimates) with
        | Some r, Some f when f > 0. -> Some (ref_name, r /. f)
        | _ -> None)
      speedup_pairs
  in
  if speedups <> [] then begin
    print_endline "\n-- fast paths vs reference implementations --";
    List.iter
      (fun (name, x) -> Printf.printf "%-42s %10.1fx\n" name x)
      speedups
  end;
  (match out with
   | Some path ->
     write_json path estimates speedups;
     Printf.printf "\nwrote %s\n" path
   | None -> ());
  (match check with
   | Some baseline_path ->
     let ok = check_speedups ~baseline_path ~tolerance speedups in
     flush stdout;
     if not ok then exit 1
   | None -> ());
  flush stdout
