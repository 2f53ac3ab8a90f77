(** Stateful firewall: outbound traffic from the protected side opens a
    flow entry; inbound traffic is admitted only when matching state
    exists. A classic tenant extension program. *)

open Flexbpf.Builder

let conn_map ?(size = 8192) () = map_decl ~key_arity:4 ~size "fw_conn"

let flow_out =
  [ field "ipv4" "src"; field "ipv4" "dst"; field "tcp" "sport";
    field "tcp" "dport" ]

(* inbound packets match the reversed tuple *)
let flow_in =
  [ field "ipv4" "dst"; field "ipv4" "src"; field "tcp" "dport";
    field "tcp" "sport" ]

(** [inside] predicate: packets whose ipv4.src is below [boundary] are
    from the protected side (the simulator gives protected hosts low
    ids). *)
let block ?(name = "stateful_fw") ~boundary () =
  let inside = field "ipv4" "src" <: const boundary in
  Flexbpf.Builder.block name
    [ if_ inside
        [ (* outbound: record state *)
          map_put "fw_conn" flow_out (const 1) ]
        [ (* inbound: admit only established *)
          when_ (not_ (map_get "fw_conn" flow_in >: const 0))
            [ map_incr "fw_denied" [ const 0 ]; drop ] ] ]

let denied_map = map_decl ~key_arity:1 ~size:4 "fw_denied"

let program ?(owner = "tenant") ?(boundary = 100) () =
  program ~owner "firewall"
    ~maps:[ conn_map (); denied_map ]
    [ block ~boundary () ]

(** Number of inbound packets dropped so far, read from device state. *)
let denied_count dev =
  match Targets.Device.map_state dev "fw_denied" with
  | Some st -> Flexbpf.State.get st [| 0L |]
  | None ->
    (* tenant-namespaced instance *)
    (match Targets.Device.map_state dev "tenant/fw_denied" with
     | Some st -> Flexbpf.State.get st [| 0L |]
     | None -> 0L)
