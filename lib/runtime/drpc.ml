(** Data-plane RPC services (§3.4).

    The infrastructure program exposes common utilities (state
    replication, counter reads, migration chunks) as dRPC services that
    tenant datapaths invoke without a controller round-trip. Service
    discovery runs either through the controller or an in-network
    registry; both are modeled.

    Latency model: a dRPC invocation rides the data plane between
    adjacent devices (microseconds); the control-plane alternative is a
    controller round trip (milliseconds).

    Fault tolerance: a bound [Netsim.Faults] injector may drop
    invocations (request lost in the fabric — the handler never runs).
    The async entry points carry a per-call timeout and a bounded
    exponential-backoff retry loop; exhausting the budget reports
    [None]. Counters: "drpc.drops", "drpc.retries", "drpc.gaveups". *)

type service = {
  svc_name : string;
  svc_owner : string; (* provider: "infra" or a tenant *)
  handler : int64 list -> int64;
  dataplane_latency : float; (* seconds per invocation *)
}

type t = {
  sim : Netsim.Sim.t;
  services : (string, service) Hashtbl.t;
  controlplane_rtt : float;
  dp_invocations : int ref; (* "drpc.dp_invocations" registry handle *)
  cp_invocations : int ref; (* "drpc.cp_invocations" registry handle *)
  mutable faults : Netsim.Faults.t option;
  stats : Obs.Metrics.t; (* the sim's unified registry *)
}

let create ?(controlplane_rtt = 0.002) sim =
  let stats = Obs.Scope.metrics (Netsim.Sim.obs sim) in
  { sim; services = Hashtbl.create 16; controlplane_rtt;
    dp_invocations = Obs.Metrics.counter stats "drpc.dp_invocations";
    cp_invocations = Obs.Metrics.counter stats "drpc.cp_invocations";
    faults = None; stats }

let tracer t = Obs.Scope.trace (Netsim.Sim.obs t.sim)

(** Bind (or clear) a fault injector; [Drpc_window] entries of its plan
    then apply to every invocation through this registry. *)
let set_faults t faults = t.faults <- faults

let stats t = t.stats

let delivered t name =
  match t.faults with
  | None -> true
  | Some f ->
    (match Netsim.Faults.rpc_decision f ~service:name with
     | `Deliver -> true
     | `Drop ->
       Obs.Metrics.incr t.stats "drpc.drops";
       false)

let register t ?(owner = "infra") ?(dataplane_latency = 5e-6) name handler =
  Hashtbl.replace t.services name
    { svc_name = name; svc_owner = owner; handler; dataplane_latency }

let unregister t name = Hashtbl.remove t.services name

(** In-network registry lookup by glob pattern. *)
let discover t pattern =
  Hashtbl.fold
    (fun name _ acc ->
      if Flexbpf.Patch.glob_matches pattern name then name :: acc else acc)
    t.services []
  |> List.sort compare

(** Synchronous invocation from inside packet processing — this is what
    a [Call] statement compiles to. Returns 0 for unknown services
    (total semantics, like map reads). *)
let invoke_inline t name args =
  match Hashtbl.find_opt t.services name with
  | None -> 0L
  | Some svc ->
    incr t.dp_invocations;
    svc.handler args

(* Shared async invocation skeleton. Each attempt either delivers (the
   handler runs once, the callback fires after [latency]) or is lost to
   an injected fault; a lost attempt is detected after [timeout] and
   retried after an exponentially growing backoff, up to [max_retries]
   retries, after which the caller sees [None]. With no fault injector
   bound, the first attempt always delivers — the happy path is
   unchanged. *)
let invoke_async t ~count ~plane ~latency ~timeout ~max_retries name svc args ~k
    =
  (* one span per logical call, covering all attempts up to the result
     callback (or the give-up) *)
  let span =
    Obs.Trace.start (tracer t) "drpc.call"
      ~attrs:[ ("service", Obs.Trace.S name); ("plane", Obs.Trace.S plane) ]
  in
  let settle ~attempts ~ok result =
    Obs.Trace.finish (tracer t) span
      ~attrs:[ ("attempts", Obs.Trace.I attempts); ("ok", Obs.Trace.B ok) ];
    k result
  in
  let rec attempt n =
    count ();
    if delivered t name then
      Netsim.Sim.after t.sim latency (fun () ->
          settle ~attempts:(n + 1) ~ok:true (Some (svc.handler args)))
    else
      Netsim.Sim.after t.sim timeout (fun () ->
          if n < max_retries then begin
            Obs.Metrics.incr t.stats "drpc.retries";
            (* bounded exponential backoff: timeout, 2*timeout, ... *)
            Netsim.Sim.after t.sim
              (timeout *. (2. ** float_of_int n))
              (fun () -> attempt (n + 1))
          end
          else begin
            Obs.Metrics.incr t.stats "drpc.gaveups";
            settle ~attempts:(n + 1) ~ok:false None
          end)
  in
  attempt 0

(** Asynchronous data-plane invocation: the result callback fires after
    the data-plane latency ([None] after the retry budget is spent on a
    faulty fabric). [timeout] defaults to 8x the service latency. *)
let invoke_dataplane t ?timeout ?(max_retries = 3) name args ~k =
  match Hashtbl.find_opt t.services name with
  | None -> k None
  | Some svc ->
    let timeout =
      match timeout with Some s -> s | None -> 8. *. svc.dataplane_latency
    in
    invoke_async t
      ~count:(fun () -> incr t.dp_invocations)
      ~plane:"dp" ~latency:svc.dataplane_latency ~timeout ~max_retries name svc
      args ~k

(** The same operation via the controller: one control-plane RTT per
    invocation (the baseline for the E11 experiment). [timeout]
    defaults to 2x the control-plane RTT. *)
let invoke_controlplane t ?timeout ?(max_retries = 3) name args ~k =
  match Hashtbl.find_opt t.services name with
  | None -> k None
  | Some svc ->
    let timeout =
      match timeout with Some s -> s | None -> 2. *. t.controlplane_rtt
    in
    invoke_async t
      ~count:(fun () -> incr t.cp_invocations)
      ~plane:"cp" ~latency:t.controlplane_rtt ~timeout ~max_retries name svc
      args ~k

(** Bind this registry as the dRPC backend of a device's interpreter
    environment, so [Call] statements in installed programs reach it. *)
let bind_device t device =
  (Targets.Device.env device).Flexbpf.Interp.drpc <- invoke_inline t

(** The well-known demand-paging service: a tiered table's device-tier
    fault ships the faulted key to the host tier and the promotion
    commits when the page RPC completes. The handler is a pure ack —
    the authoritative binding already lives in the device's [Interp]
    environment; what rides the fabric (and what faults can drop) is
    the {e promotion}, never the lookup result. *)
let page_service = "tier.page"

(** Route [device]'s demand paging ([Interp.env.page_in]) through this
    registry's async machinery: each device-tier fault becomes a
    "tier.page" data-plane invocation with the standard
    timeout/backoff/retry loop, wrapped in a [table.fault] span. A
    dropped page (fault-injected dRPC window) means the commit never
    fires — lookups keep being served by the host tier, slower but
    never wrong — and "table.faults" / "table.fault_drops" count both
    outcomes in the unified registry. *)
let bind_paging ?(latency = 20e-6) ?timeout ?max_retries t device =
  if not (Hashtbl.mem t.services page_service) then
    register t ~dataplane_latency:latency page_service (fun _ -> 1L);
  let env = Targets.Device.env device in
  let dev_id = Targets.Device.id device in
  env.Flexbpf.Interp.page_in <-
    Some (fun table key commit ->
      let key = Flexbpf.State.key_of key 0 (Bytes.length key / 8) in
      let span =
        Obs.Trace.start (tracer t) "table.fault"
          ~attrs:
            [ ("table", Obs.Trace.S table);
              ("device", Obs.Trace.S dev_id);
              ("key_arity", Obs.Trace.I (Array.length key)) ]
      in
      Obs.Metrics.incr t.stats "table.faults";
      invoke_dataplane t ?timeout ?max_retries page_service
        (Array.to_list key) ~k:(fun res ->
          let ok = res <> None in
          if ok then commit ()
          else Obs.Metrics.incr t.stats "table.fault_drops";
          Obs.Trace.finish (tracer t) span
            ~attrs:[ ("ok", Obs.Trace.B ok) ]))

let dp_invocations t = !(t.dp_invocations)
let cp_invocations t = !(t.cp_invocations)

(* Stock infra services ------------------------------------------------ *)

(** Register the standard utility services the infrastructure program
    provides, backed by the devices in [fleet]:
    - "replicate": copy map [arg0 = device index src] to dst (arg1),
      map chosen by registration;
    - "read_counter": sum of a map on a device;
    - "heartbeat": returns the invocation count (liveness probe). *)
let register_standard t ~fleet ~map_name =
  let dev i =
    if i >= 0 && i < List.length fleet then Some (List.nth fleet i) else None
  in
  let beat = ref 0L in
  register t "heartbeat" (fun _ ->
      beat := Int64.add !beat 1L;
      !beat);
  register t "read_counter" (fun args ->
      match args with
      | [ i ] ->
        (match dev (Int64.to_int i) with
         | Some d -> Migration.map_sum d map_name
         | None -> 0L)
      | _ -> 0L);
  register t "replicate" ~dataplane_latency:20e-6 (fun args ->
      match args with
      | [ src; dst ] ->
        (match dev (Int64.to_int src), dev (Int64.to_int dst) with
         | Some s, Some d ->
           Migration.transfer_snapshot ~src:s ~dst:d [ map_name ];
           1L
         | _ -> 0L)
      | _ -> 0L)
