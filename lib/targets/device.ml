(** A runtime-programmable device instance.

    All architectures share FlexBPF's functional semantics (one
    interpreter); they differ in *where* an element may be placed and
    what it costs — which is exactly the paper's fungibility taxonomy.
    The device performs its own internal slotting (stage / tile / pool /
    PEM), mirroring how vendor backends hide physical layout behind the
    device API; the global compiler only picks which device hosts which
    element. *)

open Flexbpf

let reject_to_string = Resource.reject_to_string

type t = {
  dev_id : string;
  profile : Arch.profile;
  mutable occ : Resource.snapshot;
    (* the resource state, replaced on every change: [install] runs the
       planner's [Resource.admit] on it, and [snapshot] returns it *)
  mutable headers : Ast.header_decl list;
  mutable parser : Ast.parser_rule list;
  mutable map_decls : Ast.map_decl list;
  env : Interp.env;
  mutable cached_program : Ast.program option;
  mutable compiled : Compile.t option;
    (* staged fast path of the live program, or of an earlier one: the
       seed of the next recompile *)
  mutable compiled_frozen : Compile.t option; (* fast path for the frozen program *)
  mutable powered_on : bool;
  mutable processed : int;
  mutable version : int; (* bumped on every reconfiguration *)
  (* Two-version consistency (§2): while a reconfiguration is in flight
     the device keeps executing the frozen old program; the new program
     becomes visible atomically at thaw. Destructive cleanups performed
     during the window are deferred so the old program stays runnable:
     map unrefs wait in [occ.pending_unref], table unregistrations in
     [deferred]. *)
  mutable frozen : (Ast.program * int) option; (* program, version *)
  mutable deferred : (unit -> unit) list;
  (* Crash consistency: [freeze] snapshots the structural state so a
     mid-update crash (or an explicit abort) can roll the device back
     to its old program — old-XOR-new even under failure. *)
  mutable checkpoint : checkpoint option;
  mutable crashes : int; (* total crash events, for health checks *)
  (* Observability: wired by [Wiring.attach] to the simulation's scope.
     [obs_pkt] caches the per-generation packet counter handle so the
     hot path pays one int compare + pointer bump, re-resolving only
     when the program version changes. *)
  mutable obs_scope : Obs.Scope.t option;
  mutable obs_labels : (string * string) list;
    (* extra labels on every device series — e.g. [("shard", i)] when
       the device runs inside a sharded simulation *)
  mutable obs_pkt : (int * int ref) option; (* version, counter handle *)
}

(** Structural state captured at [freeze]. Map {e contents} are not
    snapshotted: traffic keeps mutating state under the old program
    during the window, and rollback must not clobber those updates —
    only maps and tables {e added} by the aborted update are removed. *)
and checkpoint = {
  ck_occ : Resource.snapshot; (* immutable: kept, not copied *)
  ck_headers : Ast.header_decl list;
  ck_parser : Ast.parser_rule list;
  ck_map_decls : Ast.map_decl list;
  ck_env_maps : string list; (* env map names present at freeze *)
  ck_env_tables : string list; (* registered table names at freeze *)
  ck_tier_caps : (string * int) list; (* device-tier bounds at freeze *)
  ck_version : int;
}

(** The compiler's state-encoding selection (§3.1): each architecture
    class has a natural physical encoding for logical maps. *)
let default_encoding_of_kind : Arch.kind -> State.concrete = function
  | Arch.Rmt | Arch.Elastic_pipe -> State.Registers
  | Arch.Drmt | Arch.Tiles -> State.Stateful_table
  | Arch.Smartnic | Arch.Fpga | Arch.Host_ebpf -> State.Flow_state

let shape_of_profile (p : Arch.profile) : Resource.shape =
  match p.kind with
  | Arch.Rmt -> Resource.Sh_staged { stages = p.stages; per_stage = p.per_stage }
  | Arch.Elastic_pipe ->
    Resource.Sh_staged_pem
      { stages = p.stages; per_stage = p.per_stage; pem_slots = p.pem_slots }
  | Arch.Tiles ->
    Resource.Sh_tiled
      { tiles = p.tiles; tile_bytes = p.tile_bytes; pool = p.pool }
  | Arch.Drmt | Arch.Smartnic | Arch.Fpga | Arch.Host_ebpf ->
    Resource.Sh_pooled { pool = p.pool }

let create ?(id = "dev") (profile : Arch.profile) =
  let empty_prog =
    { Ast.prog_name = id; owner = "infra"; headers = []; parser = [];
      maps = []; pipeline = [] }
  in
  { dev_id = id;
    profile;
    occ =
      { Resource.snap_device = id;
        shape = shape_of_profile profile;
        max_block_cycles = profile.max_block_cycles;
        parser_capacity = profile.parser_capacity;
        stage_used = Array.make (max 1 profile.stages) Resource.zero;
        pool_used = Resource.zero;
        tiles_used = [];
        pem_used = 0;
        placed = [];
        parser_rules = [];
        map_refs = [];
        pending_unref = [] };
    headers = [];
    parser = [];
    map_decls = [];
    env = Interp.create_env empty_prog;
    cached_program = None;
    compiled = None;
    compiled_frozen = None;
    powered_on = true;
    processed = 0;
    version = 0;
    frozen = None;
    deferred = [];
    checkpoint = None;
    crashes = 0;
    obs_scope = None;
    obs_labels = [];
    obs_pkt = None }

let id t = t.dev_id
let kind t = t.profile.kind

let set_obs ?(labels = []) t scope =
  t.obs_scope <- scope;
  t.obs_labels <- labels;
  t.obs_pkt <- None
let version t = t.version
let env t = t.env
let processed t = t.processed
let snapshot t = t.occ

let installed_names t =
  List.map (fun (p : Resource.placed) -> p.pl_name) t.occ.placed

(* -- Program assembly ------------------------------------------------ *)

let rebuild_program t =
  let pipeline =
    List.map (fun (p : Resource.placed) -> p.pl_element) t.occ.placed
  in
  let prog =
    { Ast.prog_name = t.dev_id; owner = "infra"; headers = t.headers;
      parser = t.parser; maps = t.map_decls; pipeline }
  in
  t.cached_program <- Some prog;
  t.version <- t.version + 1;
  match t.obs_scope with
  | None -> ()
  | Some scope ->
    let m = Obs.Scope.metrics scope in
    let labels = ("device", t.dev_id) :: t.obs_labels in
    Obs.Metrics.incr m ~labels "device.reconfigs";
    Obs.Metrics.set_gauge m ~labels "device.elements"
      (float_of_int (List.length t.occ.placed));
    Obs.Metrics.set_gauge m ~labels "device.parser_rules"
      (float_of_int (List.length t.parser))

let program t =
  match t.cached_program with
  | Some p -> p
  | None -> rebuild_program t; Option.get t.cached_program

(** The staged fast path of the live program, compiling on demand. A
    stale [compiled] (the program changed since) seeds the recompile,
    so only the changed elements are compiled again. *)
let compiled_program t =
  match t.compiled with
  | Some c when Compile.program c == program t -> c
  | prev ->
    let c = Compile.compile ?prev t.env (program t) in
    t.compiled <- Some c;
    c

let precompile t = ignore (compiled_program t)

(* -- Install / uninstall ---------------------------------------------- *)

let merge_headers t (ctx : Ast.program) =
  List.iter
    (fun h ->
      if not (List.exists (fun x -> x.Ast.hdr_name = h.Ast.hdr_name) t.headers)
      then t.headers <- t.headers @ [ h ])
    ctx.headers

(* The context's parser rules must be present for the device to accept
   the program's traffic; [Resource.admit] has checked the capacity. *)
let merge_parser t (ctx : Ast.program) =
  t.parser <-
    t.parser
    @ List.filter
        (fun r ->
          not (List.exists (fun x -> x.Ast.pr_name = r.Ast.pr_name) t.parser))
        ctx.parser

(* Instantiate the maps [element] references for the first time: those
   [before] held no reference to and [ctx] declares. *)
let instantiate_maps t ~(before : Resource.snapshot) (ctx : Ast.program)
    element =
  Compose.element_maps element
  |> List.sort_uniq compare
  |> List.iter (fun name ->
         if Resource.map_ref before name = None then
           Option.iter
             (fun (decl : Ast.map_decl) ->
               let enc =
                 Option.value
                   (State.concrete_of_encoding decl.encoding)
                   ~default:(default_encoding_of_kind t.profile.kind)
               in
               Interp.set_env_map t.env name
                 (State.create ~name ~size:decl.map_size enc);
               t.map_decls <- t.map_decls @ [ decl ])
             (Ast.find_map ctx name))

(** Install one element of [ctx] at pipeline position [order]:
    [Resource.admit] on the device's own snapshot, then the live side
    effects (parser/header merge, map instantiation, table
    registration and tier bound). *)
let install t ~(ctx : Ast.program) ~order element =
  let before = t.occ in
  match Resource.admit before ~ctx ~order element with
  | Error _ as e -> e
  | Ok (slot, occ) ->
    t.occ <- occ;
    merge_parser t ctx;
    merge_headers t ctx;
    instantiate_maps t ~before ctx element;
    (match element with
     | Ast.Table tbl ->
       Interp.register_table t.env tbl;
       (* the placed entry carries the residency of a table admitted
          oversubscribed: its device tier is bounded *)
       (match
          Option.bind
            (Resource.find_placed occ tbl.Ast.tbl_name)
            (fun p -> p.Resource.pl_residency)
        with
        | Some r ->
          Interp.set_tier_capacity t.env tbl.Ast.tbl_name
            r.Resource.res_device_rules
        | None ->
          if Interp.tier_capacity t.env tbl.Ast.tbl_name <> None then
            Interp.set_tier_capacity t.env tbl.Ast.tbl_name 0)
     | Ast.Block _ -> ());
    rebuild_program t;
    Ok slot

let defer t cleanup =
  match t.frozen with
  | Some _ -> t.deferred <- cleanup :: t.deferred
  | None -> cleanup ()

(* Process the deferred map unrefs: drop the env map and declaration of
   every map whose last reference went away. *)
let finalize t =
  let occ = Resource.finalize t.occ in
  List.iter
    (fun name ->
      if Resource.map_ref occ name = None then begin
        Interp.remove_env_map t.env name;
        t.map_decls <-
          List.filter (fun (m : Ast.map_decl) -> m.map_name <> name)
            t.map_decls
      end)
    (List.sort_uniq compare t.occ.pending_unref);
  t.occ <- occ

let uninstall t name =
  match Resource.find_placed t.occ name, Resource.release t.occ name with
  | Some p, Some (_, occ) ->
    t.occ <- occ;
    if t.frozen = None then finalize t;
    (match p.pl_element with
     | Ast.Table tbl ->
       let tname = tbl.Ast.tbl_name in
       defer t (fun () ->
           (* skip when an element of that name was (re)installed during
              the window — its registration, rules, and tier bound must
              survive the thaw *)
           if Resource.find_placed t.occ tname = None then begin
             Interp.unregister_table t.env tname;
             if Interp.tier_capacity t.env tname <> None then
               Interp.set_tier_capacity t.env tname 0
           end)
     | Ast.Block _ -> ());
    rebuild_program t;
    true
  | _ -> false

(** Re-pack staged elements first-fit in order — the fungibility
    defragmentation pass. Returns how many elements moved. *)
let defragment t =
  let moved, occ = Resource.defragment t.occ in
  t.occ <- occ;
  if moved > 0 then rebuild_program t;
  moved

(* -- State transfer ---------------------------------------------------- *)

let map_state t name = Hashtbl.find_opt t.env.Interp.maps name

(** Load a logical snapshot into map [name], converting to this device's
    physical encoding — the state-representation conversion step of
    program migration (§3.1). *)
let load_map_snapshot t name snap =
  match List.find_opt (fun (m : Ast.map_decl) -> m.map_name = name) t.map_decls with
  | None -> false
  | Some decl ->
    let enc =
      match map_state t name with
      | Some existing -> State.encoding existing
      | None ->
        Option.value
          (State.concrete_of_encoding decl.encoding)
          ~default:(default_encoding_of_kind t.profile.kind)
    in
    Interp.set_env_map t.env name
      (State.restore ~name ~size:decl.map_size enc snap);
    true

(* -- Parser reconfiguration ------------------------------------------ *)

let add_parser_rule t rule =
  Result.map
    (fun occ ->
      t.occ <- occ;
      t.parser <- t.parser @ [ rule ];
      rebuild_program t)
    (Resource.add_parser_rule t.occ rule)

let remove_parser_rule t name =
  match Resource.remove_parser_rule t.occ name with
  | None -> false
  | Some occ ->
    t.occ <- occ;
    t.parser <- List.filter (fun r -> r.Ast.pr_name <> name) t.parser;
    rebuild_program t;
    true

(* -- Execution -------------------------------------------------------- *)

let hashtbl_keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []

(** Begin a reconfiguration window: traffic keeps seeing the current
    program — through its already-staged fast path — until [thaw].
    Also snapshots the structural state so a mid-update crash or abort
    can [rollback]. Idempotent. *)
let freeze t =
  if t.frozen = None then begin
    t.compiled_frozen <- Some (compiled_program t);
    t.frozen <- Some (program t, t.version);
    t.checkpoint <-
      Some
        { ck_occ = t.occ;
          ck_headers = t.headers;
          ck_parser = t.parser;
          ck_map_decls = t.map_decls;
          ck_env_maps = hashtbl_keys t.env.Interp.maps;
          ck_env_tables = hashtbl_keys t.env.Interp.tables;
          ck_tier_caps =
            Hashtbl.fold (fun k v acc -> (k, v) :: acc)
              t.env.Interp.tier_caps [];
          ck_version = t.version }
  end

(** End the reconfiguration window: the new program becomes visible
    atomically and deferred cleanups run. The new program is recompiled
    here — off the packet path — so the first post-swap packet already
    runs the staged fast path. *)
let thaw t =
  match t.frozen with
  | None -> ()
  | Some _ ->
    t.frozen <- None;
    t.compiled_frozen <- None;
    t.checkpoint <- None;
    finalize t;
    List.iter (fun f -> f ()) (List.rev t.deferred);
    t.deferred <- [];
    precompile t

let is_frozen t = t.frozen <> None

(** Abort the open reconfiguration window: restore the structural state
    captured at [freeze], discard the in-flight mutations and their
    deferred cleanups, and resume on the old program. Maps and tables
    added by the aborted update are dropped; pre-existing map contents
    (still being mutated by traffic under the old program) are kept.
    No-op when not frozen. *)
let rollback t =
  match t.frozen, t.checkpoint with
  | Some (old_prog, _), Some ck ->
    t.occ <- ck.ck_occ;
    t.headers <- ck.ck_headers;
    t.parser <- ck.ck_parser;
    t.map_decls <- ck.ck_map_decls;
    List.iter
      (fun name ->
        if not (List.mem name ck.ck_env_maps) then
          Interp.remove_env_map t.env name)
      (hashtbl_keys t.env.Interp.maps);
    List.iter
      (fun name ->
        if not (List.mem name ck.ck_env_tables) then
          Interp.unregister_table t.env name)
      (hashtbl_keys t.env.Interp.tables);
    (* tier bounds changed by the aborted update are restored too —
       both tiers obey old-XOR-new *)
    List.iter
      (fun name ->
        if not (List.mem_assoc name ck.ck_tier_caps) then
          Interp.set_tier_capacity t.env name 0)
      (hashtbl_keys t.env.Interp.tier_caps);
    List.iter
      (fun (name, cap) ->
        if Interp.tier_capacity t.env name <> Some cap then
          Interp.set_tier_capacity t.env name cap)
      ck.ck_tier_caps;
    (* deferred cleanups belong to the aborted new version: the old
       program's maps/tables were never actually removed, so dropping
       the cleanups restores them fully *)
    t.deferred <- [];
    t.frozen <- None;
    t.compiled_frozen <- None;
    t.checkpoint <- None;
    t.cached_program <- Some old_prog;
    t.compiled <- None;
    t.version <- ck.ck_version;
    precompile t
  | _ -> ()

(* -- Crash / restart --------------------------------------------------- *)

(** Fail-stop crash: the device stops serving (callers gate on
    [powered_on]); any open reconfiguration window is resolved at
    [restart]. *)
let crash t =
  t.powered_on <- false;
  t.crashes <- t.crashes + 1

(** Restart after a crash. A device that died mid-update comes back on
    its {e old} program — the in-flight mutations are rolled back, so
    the old-XOR-new guarantee holds across the failure; the runtime
    re-drives or aborts the plan. *)
let restart t =
  if not t.powered_on then begin
    t.powered_on <- true;
    if t.frozen <> None then rollback t
  end

let crashes t = t.crashes

(** The program traffic currently observes: the frozen old program
    during a reconfiguration window, the live one otherwise. *)
let active_program t =
  match t.frozen with Some (p, _) -> p | None -> program t

let exec t ~now_us pkt =
  t.processed <- t.processed + 1;
  t.env.Interp.now_us <- now_us;
  let compiled, ver =
    match t.frozen with
    | Some (p, v) ->
      let c =
        match t.compiled_frozen with
        | Some c -> c
        | None ->
          (* only reachable if freeze predates this device's creation
             path; stage the frozen program on first use *)
          let c = Compile.compile t.env p in
          t.compiled_frozen <- Some c;
          c
      in
      (c, v)
    | None -> (compiled_program t, t.version)
  in
  (match t.obs_scope with
   | None -> ()
   | Some scope ->
     let c =
       match t.obs_pkt with
       | Some (v, c) when v = ver -> c
       | _ ->
         let c =
           Obs.Metrics.counter (Obs.Scope.metrics scope) "device.packets"
             ~labels:
               (("device", t.dev_id) :: ("gen", string_of_int ver)
                :: t.obs_labels)
         in
         t.obs_pkt <- Some (ver, c);
         c
     in
     incr c);
  pkt.Netsim.Packet.epoch <- ver;
  Compile.run compiled pkt

(** Per-packet processing latency of the currently installed program. *)
let latency_ns t =
  Arch.latency_ns t.profile ~cycles:(Analysis.max_cycles (program t))

(* -- Tiered-table introspection ---------------------------------------- *)

let tier_stats t = Compile.tier_stats (compiled_program t)

let tier_resident_keys t name =
  Compile.tier_resident_keys (compiled_program t) name

let warm_tier t name keys = Compile.warm_table (compiled_program t) name keys

(* -- Utilization / energy --------------------------------------------- *)

let utilization t = Resource.occupancy t.occ

let set_power t on = t.powered_on <- on
let powered_on t = t.powered_on

let energy_joules t ~seconds ~pps =
  if t.powered_on then Arch.energy_joules t.profile ~seconds ~pps
  else 2. *. seconds (* sleep power *)

let reconfig_times t = t.profile.reconfig

let pp ppf t =
  Fmt.pf ppf "%s(%s, %d elements, util %.0f%%)" t.dev_id
    (Arch.kind_to_string t.profile.kind)
    (List.length t.occ.placed)
    (100. *. utilization t)
