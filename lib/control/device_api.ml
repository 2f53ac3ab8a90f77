(** Element-level control-plane API (the P4Runtime analogue, §3.4).

    Operates on counters, meters, and table rules of one device. Every
    call is accounted with a modeled control-plane latency so that
    experiments can compare control-plane against data-plane execution
    of management tasks. FlexNet's app-level abstractions translate into
    sequences of these calls. *)

type t = {
  device : Targets.Device.t;
  rtt : float; (* modeled per-call control channel RTT *)
  mutable calls : int;
  mutable modeled_time : float; (* accumulated control-plane time *)
}

let connect ?(rtt = 0.001) device = { device; rtt; calls = 0; modeled_time = 0. }

let account t =
  t.calls <- t.calls + 1;
  t.modeled_time <- t.modeled_time +. t.rtt

let calls t = t.calls
let modeled_time t = t.modeled_time

(** Insert a rule, validating it against the table declaration. *)
let insert_rule t ~table rule =
  account t;
  let prog = Targets.Device.program t.device in
  match Flexbpf.Ast.find_table prog table with
  | None -> Error (Printf.sprintf "no table %s on %s" table (Targets.Device.id t.device))
  | Some tbl ->
    (match Flexbpf.Typecheck.check_rule tbl rule with
     | Error es ->
       Error
         (Fmt.str "%a" Fmt.(list ~sep:(any "; ") Flexbpf.Typecheck.pp_error) es)
     | Ok () ->
       Flexbpf.Interp.install_rule (Targets.Device.env t.device) table rule;
       Ok ())

(** Remove rules matching a predicate; returns how many were removed. *)
let remove_rules t ~table pred =
  account t;
  let env = Targets.Device.env t.device in
  let before = List.length (Flexbpf.Interp.table_rules env table) in
  Flexbpf.Interp.remove_rules env table pred;
  before - List.length (Flexbpf.Interp.table_rules env table)

let rules t ~table =
  account t;
  Flexbpf.Interp.table_rules (Targets.Device.env t.device) table

(** Read one map cell (a "counter read"). *)
let read_counter t ~map ~key =
  account t;
  match Targets.Device.map_state t.device map with
  | None -> None
  | Some st -> Some (Flexbpf.State.get st key)

(** Write one map cell. *)
let write_counter t ~map ~key value =
  account t;
  match Targets.Device.map_state t.device map with
  | None -> false
  | Some st ->
    Flexbpf.State.put st key value;
    true
