(** The central controller: the pilot of a runtime programmable network
    (§3.4).

    Maintains the global view (topology, devices, app locations),
    exposes app-level management operations keyed by URI, dispatches
    data-plane digests (punts) to subscribed handlers, and optionally
    journals every management operation through a Raft cluster so a
    controller-node failure never loses acknowledged operations. *)

open Flexbpf

type app_kind = Infrastructure | Tenant_extension | Utility

type app = {
  uri : Uri.t;
  kind : app_kind;
  mutable program : Ast.program;
  mutable replicas : Targets.Device.t list; (* devices hosting it *)
  mutable handle : Runtime.Migration.handle option;
  registered_at : float;
}

type t = {
  sim : Netsim.Sim.t;
  topo : Netsim.Topology.t;
  wireds : Runtime.Wiring.wired list;
  apps : (string, app) Hashtbl.t; (* uri string -> app *)
  apis : (string, Device_api.t) Hashtbl.t; (* device id -> api session *)
  subscriptions : (string, string -> Netsim.Packet.t -> unit) Hashtbl.t;
  mutable digests : (float * string * int) list; (* time, digest, pkt uid *)
  mutable raft : Raft.t option;
  mutable journal_fallbacks : int; (* ops executed with no live leader *)
  mutable reresolutions : int; (* elements re-injected after a restart *)
}

let devices t = List.map (fun w -> w.Runtime.Wiring.device) t.wireds

(* every management operation traces into the simulation's scope *)
let obs t = Netsim.Sim.obs t.sim

let create ~sim ~topo ~wireds =
  let t =
    { sim; topo; wireds; apps = Hashtbl.create 16; apis = Hashtbl.create 16;
      subscriptions = Hashtbl.create 8; digests = []; raft = None;
      journal_fallbacks = 0; reresolutions = 0 }
  in
  (* digest bus: every wired device punts into the controller *)
  List.iter
    (fun w ->
      w.Runtime.Wiring.on_punt <-
        (fun digest pkt ->
          t.digests <-
            (Netsim.Sim.now sim, digest, pkt.Netsim.Packet.uid) :: t.digests;
          match Hashtbl.find_opt t.subscriptions digest with
          | Some f -> f digest pkt
          | None -> ()))
    wireds;
  t

(** Attach a Raft cluster: management operations are proposed to the
    leader before execution (journaled command log). *)
let enable_ha t raft = t.raft <- Some raft

let journal t command =
  match t.raft with
  | None -> ()
  | Some raft ->
    if not (Raft.propose raft command) then
      t.journal_fallbacks <- t.journal_fallbacks + 1

(** Element-level API session for a device (cached). *)
let api t dev =
  let id = Targets.Device.id dev in
  match Hashtbl.find_opt t.apis id with
  | Some s -> s
  | None ->
    let s = Device_api.connect dev in
    Hashtbl.replace t.apis id s;
    s

(* -- App registry ------------------------------------------------------ *)

let register_app t ~uri ~kind ~program ~replicas =
  let app =
    { uri; kind; program; replicas; handle = None;
      registered_at = Netsim.Sim.now t.sim }
  in
  Hashtbl.replace t.apps (Uri.to_string uri) app;
  journal t ("register " ^ Uri.to_string uri);
  app

let lookup t uri = Hashtbl.find_opt t.apps (Uri.to_string uri)

let app_locations t uri =
  match lookup t uri with
  | None -> []
  | Some app -> List.map Targets.Device.id app.replicas

let all_apps t =
  Hashtbl.fold (fun _ app acc -> app :: acc) t.apps []
  |> List.sort (fun a b -> compare (Uri.to_string a.uri) (Uri.to_string b.uri))

(* -- App-level management operations ---------------------------------- *)

type op_error = Unknown_app | Unknown_device | Operation_failed of string

let pp_op_error ppf = function
  | Unknown_app -> Fmt.string ppf "unknown app"
  | Unknown_device -> Fmt.string ppf "unknown device"
  | Operation_failed s -> Fmt.pf ppf "operation failed: %s" s

let find_device t dev_id =
  List.find_opt (fun d -> Targets.Device.id d = dev_id) (devices t)

(** Inject an app's elements onto a specific device (defense summoning,
    replica creation). Builds one install plan and hands it to the
    reconfiguration engine, so a partial failure rolls the whole
    injection back. *)
let inject_on t uri ~device =
  match lookup t uri with
  | None -> Error Unknown_app
  | Some app ->
    let installed = Targets.Device.installed_names device in
    (match
       List.find_opt
         (fun el -> List.mem (Ast.element_name el) installed)
         app.program.Ast.pipeline
     with
     | Some el ->
       Error
         (Operation_failed
            ("already installed: " ^ Ast.element_name el))
     | None ->
       let plan =
         Compiler.Plan.v
           (Printf.sprintf "inject-%s" (Uri.to_string uri))
           (List.mapi
              (fun i el ->
                Compiler.Plan.Install
                  { device = Targets.Device.id device; element = el;
                    ctx = app.program; order = 1000 + i })
              app.program.Ast.pipeline)
       in
       Obs.Trace.with_span
         (Obs.Scope.trace (obs t))
         "controller.inject"
         ~attrs:
           [ ("app", Obs.Trace.S (Uri.to_string uri));
             ("device", Obs.Trace.S (Targets.Device.id device)) ]
         (fun parent ->
           match
             Runtime.Reconfig.run_plan ~obs:(obs t) ~parent
               ~devices:[ device ] plan
           with
           | Error e -> Error (Operation_failed e)
           | Ok () ->
             app.replicas <- device :: app.replicas;
             journal t
               (Printf.sprintf "inject %s on %s" (Uri.to_string uri)
                  (Targets.Device.id device));
             Ok ()))

(** Retire an app replica from a device (defense retirement, scale-in). *)
let retire_from t uri ~device =
  match lookup t uri with
  | None -> Error Unknown_app
  | Some app ->
    let plan =
      Compiler.Plan.v
        (Printf.sprintf "retire-%s" (Uri.to_string uri))
        (List.map
           (fun el ->
             Compiler.Plan.Remove
               { device = Targets.Device.id device;
                 element_name = Ast.element_name el })
           app.program.Ast.pipeline)
    in
    Obs.Trace.with_span
      (Obs.Scope.trace (obs t))
      "controller.retire"
      ~attrs:
        [ ("app", Obs.Trace.S (Uri.to_string uri));
          ("device", Obs.Trace.S (Targets.Device.id device)) ]
      (fun parent ->
        ignore
          (Runtime.Reconfig.run_plan ~obs:(obs t) ~parent ~devices:[ device ]
             plan));
    app.replicas <-
      List.filter
        (fun d -> Targets.Device.id d <> Targets.Device.id device)
        app.replicas;
    journal t
      (Printf.sprintf "retire %s from %s" (Uri.to_string uri)
         (Targets.Device.id device));
    Ok ()

(** Migrate a stateful app between devices using the data-plane swing
    protocol. The app must have a migration handle (set at deploy). *)
let migrate t uri ~to_device ?(on_done = fun () -> ()) () =
  match lookup t uri with
  | None -> Error Unknown_app
  | Some app ->
    (match app.handle with
     | None -> Error (Operation_failed "app has no migration handle")
     | Some handle ->
       let map_names =
         List.map (fun (m : Ast.map_decl) -> m.map_name) app.program.Ast.maps
       in
       journal t
         (Printf.sprintf "migrate %s to %s" (Uri.to_string uri)
            (Targets.Device.id to_device));
       Runtime.Migration.swing ~sim:t.sim handle ~dst:to_device ~map_names
         ~on_done:(fun _ ->
           app.replicas <- [ to_device ];
           on_done ())
         ();
       Ok ())

(** Expand a named resource of an app: grow a map's declared size and
    reinstall (the "expand a certain resource type" URI operation). *)
let expand_map t uri ~map_name ~factor =
  match lookup t uri with
  | None -> Error Unknown_app
  | Some app ->
    let changed = ref false in
    let maps =
      List.map
        (fun (m : Ast.map_decl) ->
          if m.map_name = map_name then begin
            changed := true;
            { m with map_size = m.map_size * factor }
          end
          else m)
        app.program.Ast.maps
    in
    if not !changed then Error (Operation_failed ("no map " ^ map_name))
    else begin
      app.program <- { app.program with Ast.maps };
      journal t
        (Printf.sprintf "expand %s/%s x%d" (Uri.to_string uri) map_name factor);
      Ok ()
    end

(* -- Failure handling --------------------------------------------------- *)

(** A device crashed: drop its cached API session (it is gone on the
    device side) and journal the event. App replica lists keep the
    device — it is expected back; [handle_device_restart] re-resolves. *)
let handle_device_crash t dev_id =
  Hashtbl.remove t.apis dev_id;
  journal t ("device-crash " ^ dev_id)

(** A crashed device restarted: reconnect lazily and re-resolve every
    app that names it as a replica. A mid-update crash rolled the
    device back to its old program, so elements injected during the
    lost window are gone — reinstall whatever is missing. *)
let handle_device_restart t dev_id =
  Hashtbl.remove t.apis dev_id;
  (match find_device t dev_id with
   | None -> ()
   | Some dev ->
     List.iter
       (fun app ->
         if
           List.exists
             (fun d -> Targets.Device.id d = dev_id)
             app.replicas
         then
           (* one single-op plan per missing element: a rejected
              element must not block re-resolving its siblings *)
           List.iteri
             (fun i el ->
               let name = Ast.element_name el in
               if not (List.mem name (Targets.Device.installed_names dev))
               then
                 match
                   Runtime.Reconfig.run_plan ~obs:(obs t) ~devices:[ dev ]
                     (Compiler.Plan.v "reresolve"
                        [ Compiler.Plan.Install
                            { device = dev_id; element = el;
                              ctx = app.program; order = 1000 + i } ])
                 with
                 | Ok () -> t.reresolutions <- t.reresolutions + 1
                 | Error _ -> ())
             app.program.Ast.pipeline)
       (all_apps t));
  journal t ("device-restart " ^ dev_id)

(** Elements re-injected by restart re-resolution. *)
let reresolutions t = t.reresolutions

(** Subscribe to a fault injector's device events so crashes and
    restarts are handled automatically. *)
let watch_faults t faults =
  Netsim.Faults.subscribe faults (fun dev_id ev ->
      match ev with
      | `Crash -> handle_device_crash t dev_id
      | `Restart -> handle_device_restart t dev_id)

(* -- Digests ----------------------------------------------------------- *)

let subscribe t ~digest f = Hashtbl.replace t.subscriptions digest f

let digest_count t name =
  List.length (List.filter (fun (_, d, _) -> d = name) t.digests)

(* -- Global view -------------------------------------------------------- *)

type device_summary = {
  ds_id : string;
  ds_kind : Targets.Arch.kind;
  ds_elements : int;
  ds_utilization : float;
  ds_processed : int;
}

let view t =
  List.map
    (fun d ->
      { ds_id = Targets.Device.id d;
        ds_kind = Targets.Device.kind d;
        ds_elements = List.length (Targets.Device.installed_names d);
        ds_utilization = Targets.Device.utilization d;
        ds_processed = Targets.Device.processed d })
    (devices t)

let pp_view ppf t =
  List.iter
    (fun s ->
      Fmt.pf ppf "%-12s %-12s elements=%-3d util=%3.0f%% processed=%d@."
        s.ds_id
        (Targets.Arch.kind_to_string s.ds_kind)
        s.ds_elements
        (100. *. s.ds_utilization)
        s.ds_processed)
    (view t)
