(** Elastic scaling policies (§1.1): defenses and apps "dynamically
    scale in and out based on attack traffic volume".

    A threshold policy samples a load signal periodically and drives the
    replica count toward ceil(load / capacity_per_replica), within
    bounds and a cooldown. The machinery is mechanism-agnostic: the
    [scale_to] actuator injects or removes replicas via the incremental
    compiler. *)

type t = {
  sim : Netsim.Sim.t;
  name : string;
  decide : int -> int; (* current replicas -> desired replicas *)
  min_replicas : int;
  max_replicas : int;
  cooldown : float;
  scale_to : int -> unit; (* actuator: set replica count *)
  sample : unit -> float; (* load signal, recorded on the span *)
  mutable replicas : int;
  mutable last_change : float;
  mutable running : bool;
  mutable events : (float * int) list; (* (time, new count), newest first *)
}

let clamp t n = max t.min_replicas (min t.max_replicas n)

let step t =
  let want = clamp t (t.decide t.replicas) in
  let now = Netsim.Sim.now t.sim in
  if want <> t.replicas && now -. t.last_change >= t.cooldown then begin
    let from = t.replicas in
    t.replicas <- want;
    t.last_change <- now;
    t.events <- (now, want) :: t.events;
    let scope = Netsim.Sim.obs t.sim in
    Obs.Metrics.incr (Obs.Scope.metrics scope)
      ~labels:[ ("policy", t.name) ]
      "elastic.scale_events";
    Obs.Trace.with_span (Obs.Scope.trace scope) "elastic.scale"
      ~attrs:
        [ ("policy", Obs.Trace.S t.name);
          ("from", Obs.Trace.I from);
          ("to", Obs.Trace.I want);
          ("load", Obs.Trace.F (t.sample ())) ]
      (fun _ -> t.scale_to want)
  end

let create ?(min_replicas = 0) ?(max_replicas = 8) ?(cooldown = 0.2)
    ?(period = 0.1) ~sim ~name ~sample ~capacity_per_replica ~scale_to () =
  let decide _current =
    let load = sample () in
    if load <= 0. then min_replicas
    else int_of_float (ceil (load /. capacity_per_replica))
  in
  let t =
    { sim; name; decide; min_replicas; max_replicas; cooldown; scale_to;
      sample; replicas = min_replicas; last_change = -1e9; running = true;
      events = [] }
  in
  Netsim.Sim.every sim ~period (fun () ->
      if t.running then step t;
      t.running);
  t

let stop t = t.running <- false
let replicas t = t.replicas
let events t = List.rev t.events
let name t = t.name

(** A [scale_to] actuator driving a registered controller app over a
    fixed device list through the plan path: replica i lives on the
    i-th device, so scaling to [n] injects the app (via
    [Controller.inject_on], i.e. a plan through the reconfiguration
    engine) on devices [0..n-1] missing it and retires it from the
    rest. [on_retire] runs just before a replica is removed — e.g. to
    harvest counters before the uninstall releases the maps;
    [on_inject] just after one comes up. *)
let app_actuator ?(on_inject = fun (_ : Targets.Device.t) -> ())
    ?(on_retire = fun (_ : Targets.Device.t) -> ()) ~controller ~uri ~devices
    () =
  fun n ->
    let current = Controller.app_locations controller uri in
    List.iteri
      (fun i dev ->
        let present = List.mem (Targets.Device.id dev) current in
        if i < n && not present then begin
          match Controller.inject_on controller uri ~device:dev with
          | Ok () -> on_inject dev
          | Error _ -> ()
        end
        else if i >= n && present then begin
          on_retire dev;
          ignore (Controller.retire_from controller uri ~device:dev)
        end)
      devices
