(** Deploying compiled policies onto live devices.

    The policy is sliced per device ({!Compile.compile}). Every slice
    is then planned over its device's resource snapshot
    ([Compiler.Placement.plan]), so a slice that does not fit fails
    before any device is touched. The concatenated plan runs once
    through the one reconfiguration engine ([Runtime.Reconfig.run_plan]),
    which freezes the touched devices, installs the table elements,
    rolls back on an op failure and thaws. The rule sets land right
    after, before the simulator runs another event, so traffic observes
    either the pre-policy network or the complete policy.

    A device already inside another plan's open window (a hitless
    patch) is not thawed here: the policy rides that window and becomes
    visible at its acknowledgement. This module never opens or closes a
    window itself. *)

type error =
  | Compile_error of Compile.error
  | Runtime_error of string

val pp_error : Format.formatter -> error -> unit

type deployment = {
  dp_name : string;
  dp_owner : string;
  dp_pol : Ast.pol;
  dp_devices : (Targets.Device.t * Compile.lowered) list;
}

(** Compile [pol] for the device/switch assignment, plan every slice,
    and install the plan atomically. The program and rule sets land on
    every device or none. *)
val deploy :
  ?obs:Obs.Scope.t -> ?owner:string -> name:string ->
  devices:(Targets.Device.t * int64) list -> Ast.pol ->
  (deployment, error) result

(** Remove a deployed policy from all its devices as one plan of
    [Remove] ops. Rules disappear with their tables. *)
val undeploy :
  ?obs:Obs.Scope.t -> deployment -> (unit, string) result
