(** Reconfiguration plans: the interface between the compiler and the
    runtime. A plan is an ordered list of device operations; the runtime
    executes it hitlessly (or via drain, for the compile-time baseline).

    Per-device operations serialize; operations on different devices run
    in parallel ("synchronized reconfigurations across the network"), so
    a plan's wall-clock duration is the maximum per-device serial time.

    Plans carry no device handles — only ids — so the compiler can emit
    them from pure searches over resource snapshots; only
    [Runtime.Reconfig] resolves ids to live devices. *)

open Flexbpf

type op =
  | Install of { device : string; element : Ast.element; ctx : Ast.program; order : int }
  | Remove of { device : string; element_name : string }
  | Move of {
      from_device : string;
      to_device : string;
      element : Ast.element;
      ctx : Ast.program;
      order : int;
    }
  | Add_parser of { device : string; rule : Ast.parser_rule }
  | Remove_parser of { device : string; rule_name : string }
  | Migrate_state of { from_device : string; to_device : string; map_name : string }
  | Defragment of { device : string; moves : int }
      (* re-pack staged elements; [moves] live relocations *)

type t = {
  plan_name : string;
  ops : op list;
  residency : Targets.Resource.residency list;
      (* tables this plan installs oversubscribed: planned device-tier
         size and predicted miss rate, for display and admission audit *)
}

let v ?(residency = []) name ops = { plan_name = name; ops; residency }

let op_device = function
  | Install { device; _ } | Remove { device; _ } | Add_parser { device; _ }
  | Remove_parser { device; _ } | Defragment { device; _ } -> device
  | Move { to_device; _ } -> to_device
  | Migrate_state { to_device; _ } -> to_device

let op_name = function
  | Install { element; _ } -> "install " ^ Ast.element_name element
  | Remove { element_name; _ } -> "remove " ^ element_name
  | Move { element; from_device; to_device; _ } ->
    Printf.sprintf "move %s %s->%s" (Ast.element_name element) from_device
      to_device
  | Add_parser { rule; _ } -> "add-parser " ^ rule.Ast.pr_name
  | Remove_parser { rule_name; _ } -> "remove-parser " ^ rule_name
  | Migrate_state { map_name; _ } -> "migrate-state " ^ map_name
  | Defragment { moves; _ } -> Printf.sprintf "defragment (%d moves)" moves

(** Modelled duration of one op on the device's reconfiguration path. *)
let op_time (times : Targets.Arch.reconfig_times) = function
  | Install _ -> times.t_add_table
  | Remove _ -> times.t_remove_table
  | Move _ -> times.t_move_element
  | Add_parser _ | Remove_parser _ -> times.t_parser_change
  | Migrate_state _ -> times.t_move_element
  | Defragment { moves; _ } -> float_of_int moves *. times.t_move_element

(** Resolve a device id to its reconfiguration timing profile from a
    device list; unknown ids get the dRMT profile. The single
    op-serialization cost model shared by the compiler, the runtime
    executor, and the benches. *)
let times_of_devices devices dev_id =
  match
    List.find_opt (fun d -> Targets.Device.id d = dev_id) devices
  with
  | Some d -> Targets.Device.reconfig_times d
  | None -> (Targets.Arch.profile_of_kind Targets.Arch.Drmt).Targets.Arch.reconfig

(** Serial op time per device id in the plan. *)
let per_device_times ~times_of t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun op ->
      let d = op_device op in
      let cur = Option.value (Hashtbl.find_opt tbl d) ~default:0. in
      Hashtbl.replace tbl d (cur +. op_time (times_of d) op))
    t.ops;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

(** Wall-clock duration: ops on the same device serialize, devices work
    in parallel. [times_of] resolves a device id to its profile. *)
let duration ~times_of t =
  List.fold_left
    (fun acc (_, v) -> Float.max acc v)
    0.
    (per_device_times ~times_of t)

(** Total serial work (sum of all op times) — the "intrusiveness" metric
    used by the incremental-compilation experiments. *)
let total_work ~times_of t =
  List.fold_left (fun acc op -> acc +. op_time (times_of (op_device op)) op) 0. t.ops

(** The cost annotation a pure planner attaches to a plan: predicted
    intrusiveness, wall-clock, and per-device resource deltas (occupied
    after − occupied before, over the predicted snapshots). *)
type cost = {
  c_total_work : float;
  c_duration : float;
  c_deltas : (string * Targets.Resource.t) list;
}

let cost_of ~times_of ~deltas t =
  { c_total_work = total_work ~times_of t;
    c_duration = duration ~times_of t;
    c_deltas = deltas }

(** Cross-check of the program's static WCET certificate
    ([Flexbpf.Dataflow.Cost]) against the planner's syntax-directed
    heuristic ([Flexbpf.Analysis.max_cycles]). The two agree exactly on
    programs with no statically dead branches; a ratio of 2x or more
    means the heuristic is budgeting for work the packet can never do,
    and placement decisions made from it are correspondingly
    pessimistic. *)
type cost_check = {
  ck_program : string;
  ck_certified : int; (* dead branches pruned *)
  ck_heuristic : int; (* = Analysis.max_cycles *)
  ck_ratio : float; (* heuristic / certified; 1.0 when certified = 0 *)
  ck_divergent : bool; (* ck_ratio >= 2.0 *)
}

let cost_check (prog : Ast.program) =
  let c = Flexbpf.Dataflow.Cost.analyze prog in
  let certified = c.Flexbpf.Dataflow.Cost.cc_certified in
  let heuristic = c.Flexbpf.Dataflow.Cost.cc_heuristic in
  let ratio =
    if certified <= 0 then 1.0
    else float_of_int heuristic /. float_of_int certified
  in
  { ck_program = prog.Ast.prog_name; ck_certified = certified;
    ck_heuristic = heuristic; ck_ratio = ratio;
    ck_divergent = ratio >= 2.0 }

let pp_cost_check ppf ck =
  Fmt.pf ppf "%s: certified %d, heuristic %d work units (ratio %.2f)%s"
    ck.ck_program ck.ck_certified ck.ck_heuristic ck.ck_ratio
    (if ck.ck_divergent then " [divergent]" else "")

let size t = List.length t.ops

let pp ppf t =
  let over =
    match List.length t.residency with
    | 0 -> ""
    | n -> Printf.sprintf ", %d oversubscribed" n
  in
  Fmt.pf ppf "@[<v2>plan %s (%d ops%s):@ %a@]" t.plan_name (size t) over
    Fmt.(list ~sep:cut (of_to_string op_name))
    t.ops
