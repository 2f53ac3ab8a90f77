(** Stateful app migration (§3.4).

    "As the sketch state is updated for each packet, copying state via
    control plane software is impossible." We model both protocols:

    - [freeze_copy] (control-plane baseline): snapshot the source maps
      at t0, ship them at control-plane speed, install on the
      destination and cut over. Updates applied at the source during the
      copy window are lost.

    - [swing] (data-plane, Swing-State style): the destination starts
      from a snapshot and is *mirrored* into during a short window —
      packets update both copies at line rate — then the active pointer
      flips. No updates are lost.

    The [handle] is the routing indirection: whoever processes packets
    for the migrating app executes through the handle, which runs the
    active device and mirrors to the in-progress destination. *)

type handle = {
  mutable active : Targets.Device.t;
  mutable mirror : Targets.Device.t option;
  mutable migrations : int;
}

let create device = { active = device; mirror = None; migrations = 0 }

let active t = t.active

(** Process a packet through the handle. The mirror device (if any)
    executes on a copy-free second pass — it shares the packet, whose
    field mutations are idempotent for counting apps. *)
let exec t ~now_us pkt =
  let r = Targets.Device.exec t.active ~now_us pkt in
  (match t.mirror with
   | Some dst -> ignore (Targets.Device.exec dst ~now_us pkt)
   | None -> ());
  r

(* Each map's transfer is a [Migrate_state] op executed by the engine —
   state migration goes through the same plan path as every other
   reconfiguration. One single-op plan per map so a map the destination
   does not declare skips without blocking the rest. *)
let transfer_snapshot ~src ~dst map_names =
  List.iter
    (fun name ->
      match Targets.Device.map_state src name with
      | None -> ()
      | Some _ ->
        ignore
          (Reconfig.run_plan ~devices:[ src; dst ]
             (Compiler.Plan.v "state-transfer"
                [ Compiler.Plan.Migrate_state
                    { from_device = Targets.Device.id src;
                      to_device = Targets.Device.id dst; map_name = name } ])))
    map_names

type report = {
  protocol : string;
  window : float; (* seconds the transfer took *)
  entries_moved : int;
}

let entries_of src map_names =
  List.fold_left
    (fun acc name ->
      match Targets.Device.map_state src name with
      | Some st -> acc + Flexbpf.State.size st
      | None -> acc)
    0 map_names

(** Control-plane migration: snapshot now, cut over after the copy
    window. [entries_per_second] models controller API throughput
    (table reads/writes over P4Runtime-style RPC). *)
let migration_span ~sim ~protocol ~src ~dst =
  let scope = Netsim.Sim.obs sim in
  Obs.Trace.start (Obs.Scope.trace scope) ("migration." ^ protocol)
    ~attrs:
      [ ("src", Obs.Trace.S (Targets.Device.id src));
        ("dst", Obs.Trace.S (Targets.Device.id dst)) ]

let finish_migration ~sim span (r : report) =
  let scope = Netsim.Sim.obs sim in
  Obs.Metrics.incr (Obs.Scope.metrics scope) "migration.migrations";
  Obs.Trace.finish (Obs.Scope.trace scope) span
    ~attrs:
      [ ("entries_moved", Obs.Trace.I r.entries_moved);
        ("window", Obs.Trace.F r.window) ]

let freeze_copy ?(entries_per_second = 20_000.) ?(on_done = fun (_ : report) -> ())
    ~sim t ~dst ~map_names () =
  let src = t.active in
  let span = migration_span ~sim ~protocol:"freeze_copy" ~src ~dst in
  let entries = entries_of src map_names in
  let snaps =
    List.filter_map
      (fun name ->
        Option.map
          (fun st -> (name, Flexbpf.State.snapshot st))
          (Targets.Device.map_state src name))
      map_names
  in
  let window = float_of_int (max 1 entries) /. entries_per_second in
  Netsim.Sim.after sim window (fun () ->
      List.iter
        (fun (name, snap) ->
          ignore (Targets.Device.load_map_snapshot dst name snap))
        snaps;
      t.active <- dst;
      t.migrations <- t.migrations + 1;
      let r = { protocol = "freeze-copy"; window; entries_moved = entries } in
      finish_migration ~sim span r;
      on_done r)

(** Data-plane migration: install the snapshot immediately, mirror
    updates for [mirror_window] (packets shuttle state at line rate),
    then flip. *)
let swing ?(mirror_window = 0.005) ?(on_done = fun (_ : report) -> ()) ~sim t
    ~dst ~map_names () =
  let src = t.active in
  let span = migration_span ~sim ~protocol:"swing" ~src ~dst in
  let entries = entries_of src map_names in
  transfer_snapshot ~src ~dst map_names;
  t.mirror <- Some dst;
  Netsim.Sim.after sim mirror_window (fun () ->
      t.active <- dst;
      t.mirror <- None;
      t.migrations <- t.migrations + 1;
      let r =
        { protocol = "swing"; window = mirror_window; entries_moved = entries }
      in
      finish_migration ~sim span r;
      on_done r)

(** Sum of all values in [map] on [dev] — the update-loss metric used by
    the migration experiments (for counting apps, lost updates =
    source sum at cutover − destination sum at cutover). *)
let map_sum dev map_name =
  match Targets.Device.map_state dev map_name with
  | None -> 0L
  | Some st ->
    List.fold_left
      (fun acc (_, v) -> Int64.add acc v)
      0L
      (Flexbpf.State.entries st)
