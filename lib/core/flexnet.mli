(** FlexNet: the public facade.

    Brings up a whole-stack runtime programmable network (the paper's
    Figure 1): host stacks, SmartNICs and switches wired into a packet
    simulator; the infrastructure program deployed over the fungible
    datapath by the compiler; a central controller piloting apps,
    tenants, and reconfigurations.

    {[
      let net = Flexnet.create ~arch:Targets.Arch.Drmt ~switches:3 () in
      let _ = Flexnet.deploy_infrastructure net in
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

val sim : t -> Netsim.Sim.t
val topo : t -> Netsim.Topology.t
val controller : t -> Control.Controller.t

(** The whole-stack compile path: host stack, NIC, switches, NIC, host
    stack. *)
val path : t -> Targets.Device.t list

val wireds : t -> Runtime.Wiring.wired list
val device : t -> string -> Targets.Device.t option
val switch_devices : t -> Targets.Device.t list

(** Build the whole-stack network
    [h0 — nic0 — s0 … s(n-1) — nic1 — h1] with a programmable device of
    [arch] on every switch, SmartNICs on the NIC nodes, and host-eBPF
    devices for the two host stacks. *)
val create :
  ?arch:Targets.Arch.kind -> ?switches:int -> ?link_bandwidth:float ->
  ?link_delay:float -> ?queue_capacity:int -> ?ecn_threshold:int -> unit -> t

val h0 : t -> Netsim.Node.t
val h1 : t -> Netsim.Node.t
val drpc : t -> Runtime.Drpc.t

(** The network's observability scope (the simulation's): unified
    metrics registry and span tracer for everything running in it. *)
val obs : t -> Obs.Scope.t

(** Deploy the L2/L3 infrastructure program over the fungible datapath
    and populate routes on the devices hosting the tables. Must be
    called before tenant/patch operations. *)
val deploy_infrastructure :
  ?program:Flexbpf.Ast.program -> t ->
  (Compiler.Incremental.deployment, string) result

(** @raise Invalid_argument before [deploy_infrastructure]. *)
val deployment_exn : t -> Compiler.Incremental.deployment

(** @raise Invalid_argument before [deploy_infrastructure]. *)
val tenants_exn : t -> Control.Tenants.t

(** Admit a tenant extension program (live injection). *)
val add_tenant :
  t -> Flexbpf.Ast.program ->
  (Control.Tenants.tenant * Compiler.Incremental.report,
   Control.Tenants.admission_error)
  result

(** Tenant departure (live removal + resource release). *)
val remove_tenant :
  t -> string ->
  (Compiler.Incremental.report, Control.Tenants.departure_error) result

(** Deploy a network-wide policy over the switch datapath: switch
    device [s]{e i} receives the slice for [sw = i], and every slice
    lands under one two-version window — traffic observes the
    pre-policy network or the complete policy, never a mix. *)
val deploy_policy :
  ?owner:string -> name:string -> t -> Policy.Ast.pol ->
  (Policy.Deploy.deployment, Policy.Deploy.error) result

(** Remove a deployed policy from its devices (one window). *)
val remove_policy : t -> Policy.Deploy.deployment -> (unit, string) result

(** Apply a patch hitlessly over simulated time: plan it over
    snapshots ({!Compiler.Incremental.plan_patch}), run the plan through
    {!Runtime.Reconfig.execute} in [Hitless] mode, and commit the new
    program to the deployment. The touched devices keep serving the old
    program and flip together at the acknowledgement; a crash inside
    the window re-drives the plan. [on_done] fires when the new program
    is live on every touched device. The commit is immediate, so
    admissions landing inside the window plan against the new program;
    if the window later aborts (retry budget spent), the devices stay
    on the old program while the deployment keeps the new one. *)
val patch_hitless :
  ?on_done:(Compiler.Incremental.report -> unit) -> t -> Flexbpf.Patch.t ->
  (Compiler.Incremental.report * Flexbpf.Patch.diff,
   Compiler.Incremental.error)
  result

(** Inject a packet at h0 (out of its uplink port). *)
val send_h0 : t -> Netsim.Packet.t -> unit

(** Run the simulation until [until] seconds of virtual time. *)
val run : t -> until:float -> unit

type stats = {
  delivered_h1 : int;
  delivered_h0 : int;
  device_drops : int;
  reconfig_drops : int;
}

val stats : t -> stats
