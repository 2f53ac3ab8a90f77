(** Deterministic, seeded fault injection.

    A fault plan is a declarative list of misbehaviors pinned to
    simulated time: link loss / extra delay / partition windows, device
    crash + restart events, and dRPC drop-probability windows. The plan
    is data; components opt in by {e binding}:

    - links bind here directly ([bind_link] / [bind_node_links]) — the
      injector schedules window start/stop events that arm and clear
      the link's loss/delay/down state;
    - devices live in higher layers the netsim library cannot see, so
      they register crash/restart callbacks ([register_device]); the
      injector fires them at the planned times and notifies
      subscribers (controller, replication groups) of every event;
    - dRPC registries consult [rpc_decision] per invocation.

    All randomness flows through one [Random.State] seeded at [create],
    and the simulation itself is single-threaded and deterministic, so
    a (seed, plan, workload) triple always injects the same faults at
    the same points. Happy-path code never pays for an unarmed plan. *)

type link_fault =
  | Loss of float (* drop each packet with this probability *)
  | Extra_delay of float (* add seconds of propagation latency *)
  | Down (* partition: link refuses traffic *)

type fault =
  | Link_window of {
      link : string; (* glob over link names, e.g. "s1->*" *)
      start : float;
      stop : float;
      what : link_fault;
    }
  | Device_crash of {
      device : string;
      at : float;
      restart_after : float; (* seconds of downtime *)
    }
  | Drpc_window of {
      service : string; (* glob over service names *)
      start : float;
      stop : float;
      drop_prob : float; (* probability an invocation is lost *)
    }

type device_event = [ `Crash | `Restart ]

type t = {
  sim : Sim.t;
  rng : Random.State.t;
  plan : fault list;
  counters : Obs.Metrics.t;
  mutable subscribers : (string -> device_event -> unit) list;
}

let create ~sim ~seed plan =
  (* injection counters live in the simulation's unified registry *)
  { sim; rng = Random.State.make [| seed |]; plan;
    counters = Obs.Scope.metrics (Sim.obs sim); subscribers = [] }

let tracer t = Obs.Scope.trace (Sim.obs t.sim)

let plan t = t.plan
let counters t = t.counters
let rng t = t.rng

(* Minimal glob: '*' matches any substring (the only metacharacter
   fault plans need; netsim cannot reach Flexbpf.Patch's matcher). *)
let glob_matches pat s =
  let np = String.length pat and ns = String.length s in
  let rec go p i =
    if p = np then i = ns
    else if pat.[p] = '*' then
      let rec try_from j = j <= ns && (go (p + 1) j || try_from (j + 1)) in
      try_from i
    else i < ns && pat.[p] = s.[i] && go (p + 1) (i + 1)
  in
  go 0 0

(* Schedule [on] at window start and [off] at window stop, clipping to
   the present (binding mid-window arms immediately). Elapsed windows
   schedule nothing. *)
let schedule_window t ~start ~stop ~on ~off =
  let now = Sim.now t.sim in
  if stop > now then begin
    Sim.at t.sim (Float.max start now) on;
    Sim.at t.sim (Float.max stop now) off
  end

(** Bind one link: every [Link_window] whose pattern matches the link's
    name gets its start/stop events scheduled against it. *)
let bind_link t link =
  let name = Link.name link in
  List.iter
    (function
      | Link_window l when glob_matches l.link name ->
        let kind, arm, clear =
          match l.what with
          | Loss p ->
            ( "loss",
              (fun () ->
                Obs.Metrics.incr t.counters "faults.link.loss_windows";
                Link.set_loss link ~rng:t.rng p),
              fun () -> Link.set_loss link 0. )
          | Extra_delay d ->
            ( "delay",
              (fun () ->
                Obs.Metrics.incr t.counters "faults.link.delay_windows";
                Link.set_extra_delay link d),
              fun () -> Link.set_extra_delay link 0. )
          | Down ->
            ( "partition",
              (fun () ->
                Obs.Metrics.incr t.counters "faults.link.partitions";
                Link.set_up link false),
              fun () -> Link.set_up link true )
        in
        (* the window span opens when the fault arms and closes when it
           clears; the ref threads it between the two scheduled events *)
        let window = ref None in
        let on () =
          window :=
            Some
              (Obs.Trace.start (tracer t) "fault.link_window"
                 ~attrs:[ ("link", Obs.Trace.S name); ("kind", Obs.Trace.S kind) ]);
          arm ()
        and off () =
          clear ();
          match !window with
          | Some span -> Obs.Trace.finish (tracer t) span
          | None -> ()
        in
        schedule_window t ~start:l.start ~stop:l.stop ~on ~off
      | _ -> ())
    t.plan

(** Bind every link attached to a node's ports. *)
let bind_node_links t node =
  for port = 0 to Node.port_count node - 1 do
    match Node.link node ~port with
    | Some link -> bind_link t link
    | None -> ()
  done

(** Register a device's crash/restart callbacks: each matching
    [Device_crash] schedules [crash] at its time and [restart] after
    the downtime, notifying subscribers around both. *)
let register_device t id ~crash ~restart =
  List.iter
    (function
      | Device_crash d when d.device = id ->
        let now = Sim.now t.sim in
        if d.at >= now then begin
          (* downtime span: crash opens it, restart closes it *)
          let window = ref None in
          Sim.at t.sim d.at (fun () ->
              Obs.Metrics.incr t.counters "faults.device.crashes";
              window :=
                Some
                  (Obs.Trace.start (tracer t) "fault.device_crash"
                     ~attrs:[ ("device", Obs.Trace.S id) ]);
              crash ();
              List.iter (fun f -> f id `Crash) t.subscribers);
          Sim.at t.sim (d.at +. d.restart_after) (fun () ->
              restart ();
              (match !window with
               | Some span -> Obs.Trace.finish (tracer t) span
               | None -> ());
              List.iter (fun f -> f id `Restart) t.subscribers)
        end
      | _ -> ())
    t.plan

(** Observe crash/restart events (controller re-resolution, replication
    failover). Subscribing is retroactive-safe: the list is read at
    event time, so late subscribers still see future events. *)
let subscribe t f = t.subscribers <- t.subscribers @ [ f ]

(** Per-invocation verdict for a dRPC [service] at the current time:
    the highest matching in-window drop probability decides. *)
let rpc_decision t ~service =
  let now = Sim.now t.sim in
  let p =
    List.fold_left
      (fun acc -> function
        | Drpc_window w
          when glob_matches w.service service && now >= w.start && now < w.stop
          -> Float.max acc w.drop_prob
        | _ -> acc)
      0. t.plan
  in
  if p > 0. && Random.State.float t.rng 1.0 < p then begin
    Obs.Metrics.incr t.counters "faults.drpc.drops";
    `Drop
  end
  else `Deliver
