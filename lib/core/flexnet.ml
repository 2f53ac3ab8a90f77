(** FlexNet: the public facade.

    Brings up a whole-stack runtime programmable network (Figure 1):
    host stacks, SmartNICs and switches wired into a packet simulator;
    the infrastructure program deployed over the fungible datapath by
    the compiler; a central controller piloting apps, tenants, and
    reconfigurations.

    Typical use (see examples/quickstart.ml):
    {[
      let net = Flexnet.create ~arch:Targets.Arch.Drmt ~switches:3 () in
      Flexnet.deploy_infrastructure net;
      (* send traffic, then reprogram at runtime: *)
      let _ = Flexnet.add_tenant net my_extension_program in
      Flexnet.run net ~until:1.0
    ]} *)


type t = {
  sim : Netsim.Sim.t;
  topo : Netsim.Topology.t;
  h0 : Netsim.Node.t;
  h1 : Netsim.Node.t;
  switch_nodes : Netsim.Node.t list;
  nic_nodes : Netsim.Node.t list;
  wireds : Runtime.Wiring.wired list;
  path : Targets.Device.t list; (* whole-stack compile path *)
  controller : Control.Controller.t;
  drpc : Runtime.Drpc.t;
  mutable deployment : Compiler.Incremental.deployment option;
  mutable tenants : Control.Tenants.t option;
}

let sim t = t.sim
let topo t = t.topo
let controller t = t.controller
let path t = t.path
let wireds t = t.wireds

let device t dev_id =
  List.find_opt
    (fun d -> Targets.Device.id d = dev_id)
    t.path

let switch_devices t =
  List.filter (fun d -> Targets.Arch.is_switch (Targets.Device.kind d)) t.path

(** Build the whole-stack network:
    h0 — nic0 — s0 — s1 … — nic1 — h1,
    with a programmable device of [arch] on every switch, SmartNICs on
    the NIC nodes, and host-eBPF devices representing the two host
    stacks (placement targets for offload-only components). *)
let create ?(arch = Targets.Arch.Drmt) ?(switches = 3) ?(link_bandwidth = 10e9)
    ?(link_delay = 1e-6) ?(queue_capacity = 256) ?(ecn_threshold = 0) () =
  let sim = Netsim.Sim.create () in
  let topo = Netsim.Topology.create sim in
  let h0 = Netsim.Topology.add_host topo "h0" in
  let nic0 = Netsim.Topology.add_node topo ~name:"nic0" ~kind:Netsim.Node.Nic in
  let sw_nodes =
    List.init switches (fun i ->
        Netsim.Topology.add_switch topo (Printf.sprintf "s%d" i))
  in
  let nic1 = Netsim.Topology.add_node topo ~name:"nic1" ~kind:Netsim.Node.Nic in
  let h1 = Netsim.Topology.add_host topo "h1" in
  let conn a b =
    ignore
      (Netsim.Topology.connect ~bandwidth:link_bandwidth ~delay:link_delay
         ~queue_capacity ~ecn_threshold topo a b)
  in
  let rec chain = function
    | a :: (b :: _ as rest) -> conn a b; chain rest
    | _ -> ()
  in
  chain ([ h0; nic0 ] @ sw_nodes @ [ nic1; h1 ]);
  (* devices *)
  let host0_dev = Targets.Device.create ~id:"h0-stack" Targets.Arch.host_ebpf in
  let nic0_dev = Targets.Device.create ~id:"nic0" Targets.Arch.smartnic in
  let sw_devs =
    List.mapi
      (fun i _ ->
        Targets.Device.create
          ~id:(Printf.sprintf "s%d" i)
          (Targets.Arch.profile_of_kind arch))
      sw_nodes
  in
  let nic1_dev = Targets.Device.create ~id:"nic1" Targets.Arch.smartnic in
  let host1_dev = Targets.Device.create ~id:"h1-stack" Targets.Arch.host_ebpf in
  (* wiring: NICs and switches process packets in the forwarding path *)
  let wireds =
    Runtime.Wiring.attach topo nic0 nic0_dev
    :: List.map2 (fun n d -> Runtime.Wiring.attach topo n d) sw_nodes sw_devs
    @ [ Runtime.Wiring.attach topo nic1 nic1_dev ]
  in
  let path = (host0_dev :: nic0_dev :: sw_devs) @ [ nic1_dev; host1_dev ] in
  (* host-stack devices are placement targets but not wired; give them
     the simulation's observability scope explicitly *)
  List.iter
    (fun d -> Targets.Device.set_obs d (Some (Netsim.Sim.obs sim)))
    [ host0_dev; host1_dev ];
  let controller = Control.Controller.create ~sim ~topo ~wireds in
  let drpc = Runtime.Drpc.create sim in
  List.iter (fun d -> Runtime.Drpc.bind_device drpc d) path;
  { sim; topo; h0; h1; switch_nodes = sw_nodes; nic_nodes = [ nic0; nic1 ];
    wireds; path; controller; drpc; deployment = None; tenants = None }

let h0 t = t.h0
let h1 t = t.h1
let drpc t = t.drpc

(** The network's observability scope (the simulation's): unified
    metrics registry and span tracer for everything running in it. *)
let obs t = Netsim.Sim.obs t.sim

(** Deploy the L2/L3 infrastructure program over the fungible datapath
    and populate routing rules on the devices that host the tables. *)
let deploy_infrastructure ?(program = Apps.L2l3.program ()) t =
  match Runtime.Reconfig.deploy ~obs:(obs t) ~path:t.path program with
  | Error f -> Error (Fmt.str "%a" Compiler.Placement.pp_failure f)
  | Ok deployment ->
    t.deployment <- Some deployment;
    t.tenants <- Some (Control.Tenants.create ~sim:t.sim deployment);
    (* install routes wherever the LPM table landed *)
    List.iter
      (fun w ->
        let dev = w.Runtime.Wiring.device in
        if
          List.mem "ipv4_lpm" (Targets.Device.installed_names dev)
        then
          Apps.L2l3.install_routes (Targets.Device.env dev) t.topo
            ~node_id:w.Runtime.Wiring.node.Netsim.Node.id)
      t.wireds;
    ignore
      (Control.Controller.register_app t.controller
         ~uri:(Control.Uri.v ~owner:"infra" "l2l3")
         ~kind:Control.Controller.Infrastructure ~program
         ~replicas:
           (List.filter_map
              (fun (name, dev) ->
                if name = "ipv4_lpm" then Some dev else None)
              deployment.Compiler.Incremental.dep_placement.Compiler.Placement.where));
    Ok deployment

let deployment_exn t =
  match t.deployment with
  | Some d -> d
  | None -> invalid_arg "Flexnet: call deploy_infrastructure first"

let tenants_exn t =
  match t.tenants with
  | Some x -> x
  | None -> invalid_arg "Flexnet: call deploy_infrastructure first"

(** Admit a tenant extension program (live injection). *)
let add_tenant t ext = Control.Tenants.admit (tenants_exn t) ext

(** Tenant departure (live removal + resource release). *)
let remove_tenant t name = Control.Tenants.depart (tenants_exn t) name

(** Deploy a network-wide policy over the switch datapath: slice per
    switch (s0, s1, ... get switch values 0, 1, ...) and install all
    slices under one two-version window. *)
let deploy_policy ?owner ~name t pol =
  let devices =
    List.mapi (fun i d -> (d, Int64.of_int i)) (switch_devices t)
  in
  Policy.Deploy.deploy ~obs:(obs t) ?owner ~name ~devices pol

(** Remove a deployed policy from its devices. *)
let remove_policy t dp = Policy.Deploy.undeploy ~obs:(obs t) dp

(** Apply a patch hitlessly over simulated time: plan it over
    snapshots, run the plan through the engine's Hitless window, and
    commit the new program to the deployment. The commit is immediate,
    so admissions landing inside the window plan against the new
    program. *)
let patch_hitless ?(on_done = fun (_ : Compiler.Incremental.report) -> ()) t
    patch =
  let dep = deployment_exn t in
  match Compiler.Incremental.plan_patch dep patch with
  | Error _ as e -> e
  | Ok (pc, diff) ->
    let report = pc.Compiler.Incremental.ch_report in
    let aborted = ref false in
    Runtime.Reconfig.execute ~sim:t.sim ~mode:Runtime.Reconfig.Hitless
      ~wireds:t.wireds ~devices:t.path report.Compiler.Incremental.plan
      ~on_done:(fun o ->
        if o.Runtime.Reconfig.rolled_back then aborted := true
        else on_done report);
    (* a device rejecting an op aborts the window before [execute]
       returns; nothing was committed *)
    if !aborted then
      Error (Compiler.Incremental.Exec_error "hitless plan rejected by a device")
    else begin
      Runtime.Reconfig.commit_deployment dep pc;
      Ok (report, diff)
    end

(** Inject traffic at h0 toward h1 (runs no host program — use the
    transport layer for host-stack behaviour). *)
let send_h0 t pkt = Netsim.Node.send t.h0 ~port:0 pkt

(** Run the simulation until [until] seconds of virtual time. *)
let run t ~until = ignore (Netsim.Sim.run ~until t.sim)

(** Aggregate statistics for reports. *)
type stats = {
  delivered_h1 : int;
  delivered_h0 : int;
  device_drops : int;
  reconfig_drops : int;
}

let stats t =
  { delivered_h1 = t.h1.Netsim.Node.rx_packets;
    delivered_h0 = t.h0.Netsim.Node.rx_packets;
    device_drops =
      List.fold_left
        (fun acc w -> acc + w.Runtime.Wiring.node.Netsim.Node.dropped)
        0 t.wireds;
    reconfig_drops =
      List.fold_left
        (fun acc w -> acc + Runtime.Wiring.drain_drops w)
        0 t.wireds }
