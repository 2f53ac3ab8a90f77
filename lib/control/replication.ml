(** State replication and failover (§3.4): "the FlexNet controller
    replicates important network state in a logical datapath across
    multiple physical devices."

    A replication group keeps one primary map synchronized to backup
    devices, either by periodic control-plane sync or per-call dRPC
    replication. On primary failure, a backup is promoted; the loss
    window is whatever changed since the last sync. *)

type mode = Periodic_sync of float (* period seconds *) | Drpc_sync

type t = {
  sim : Netsim.Sim.t;
  map_name : string;
  mutable primary : Targets.Device.t;
  mutable backups : Targets.Device.t list;
  mode : mode;
  mutable member_ids : string list; (* ever-members, for rejoin checks *)
  mutable syncs : int;
  mutable failovers : int;
  mutable rejoins : int;
  mutable last_sync : float;
  mutable running : bool;
}

let count t name =
  Obs.Metrics.incr (Obs.Scope.metrics (Netsim.Sim.obs t.sim)) name

let sync_once t =
  t.syncs <- t.syncs + 1;
  count t "replication.syncs";
  t.last_sync <- Netsim.Sim.now t.sim;
  List.iter
    (fun b ->
      Runtime.Migration.transfer_snapshot ~src:t.primary ~dst:b [ t.map_name ])
    t.backups

let create ~sim ~map_name ~primary ~backups mode =
  let t =
    { sim; map_name; primary; backups; mode;
      member_ids = List.map Targets.Device.id (primary :: backups);
      syncs = 0; failovers = 0; rejoins = 0; last_sync = 0.; running = true }
  in
  (match mode with
   | Periodic_sync period ->
     Netsim.Sim.every sim ~period (fun () ->
         if t.running then sync_once t;
         t.running)
   | Drpc_sync -> ());
  t

let stop t = t.running <- false

(** Promote the freshest backup after a primary failure. Returns the
    new primary, or [None] if no backups remain. *)
let failover t =
  match t.backups with
  | [] -> None
  | b :: rest ->
    t.primary <- b;
    t.backups <- rest;
    t.failovers <- t.failovers + 1;
    count t "replication.failovers";
    Some b

(** Entries that existed on the primary but are missing/stale on a
    backup — the loss window metric. *)
let staleness t backup =
  match
    ( Targets.Device.map_state t.primary t.map_name,
      Targets.Device.map_state backup t.map_name )
  with
  | Some p, Some b ->
    let bsum =
      List.fold_left (fun acc (_, v) -> Int64.add acc v) 0L
        (Flexbpf.State.entries b)
    in
    let psum =
      List.fold_left (fun acc (_, v) -> Int64.add acc v) 0L
        (Flexbpf.State.entries p)
    in
    Int64.to_int (Int64.sub psum bsum)
  | Some p, None ->
    List.length (Flexbpf.State.entries p)
  | None, _ -> 0

(* -- Failure handling --------------------------------------------------- *)

let member t dev_id = List.mem dev_id t.member_ids

(** A group member crashed. Primary: promote the freshest backup.
    Backup: drop it from the sync set (it rejoins at restart). *)
let handle_crash t dev_id =
  if not (member t dev_id) then ()
  else if Targets.Device.id t.primary = dev_id then ignore (failover t)
  else
    t.backups <-
      List.filter (fun b -> Targets.Device.id b <> dev_id) t.backups

(** A restarted (ever-)member rejoins as a backup — the state it
    crashed with is stale — and is brought current with an immediate
    sync. Non-members are ignored. *)
let rejoin t dev =
  let id = Targets.Device.id dev in
  if member t id
     && Targets.Device.id t.primary <> id
     && not (List.exists (fun b -> Targets.Device.id b = id) t.backups)
  then begin
    t.backups <- t.backups @ [ dev ];
    t.rejoins <- t.rejoins + 1;
    count t "replication.rejoins";
    if t.running then sync_once t
  end

(** Subscribe to a fault injector so group members fail over on crash
    and re-resolve (rejoin + resync) on restart. [resolve] maps a
    device id back to its handle — crashed members are forgotten, so
    the controller's registry supplies it. *)
let watch_faults t faults ~resolve =
  Netsim.Faults.subscribe faults (fun dev_id ev ->
      match ev with
      | `Crash -> handle_crash t dev_id
      | `Restart ->
        (match resolve dev_id with
         | Some dev -> rejoin t dev
         | None -> ()))

let syncs t = t.syncs
let failovers t = t.failovers
let rejoins t = t.rejoins
let primary t = t.primary
let backups t = t.backups
