(** Count-min sketch in FlexBPF — the paper's canonical stateful app
    (§3.4 uses "an app that maintains a count-min sketch" as the example
    whose state mutates per-packet and therefore cannot be migrated by
    control-plane software).

    The sketch is [depth] rows of [width] counters stored in one logical
    map keyed (row, column). The update runs as a bounded loop over the
    rows; queries take the minimum across rows. *)

open Flexbpf
open Flexbpf.Builder

type config = { depth : int; width : int; map_name : string }

let default_config = { depth = 3; width = 1024; map_name = "cms" }

let flow_exprs =
  [ field "ipv4" "src"; field "ipv4" "dst"; field "ipv4" "proto" ]

(** Column index of [row] for the current packet. *)
let column_expr cfg row_expr =
  Ast.Bin (Ast.Mod, hash ~alg:Crc32 (row_expr :: flow_exprs), const cfg.width)

let sketch_map cfg =
  map_decl ~key_arity:2 ~size:(cfg.depth * cfg.width) cfg.map_name

(** The per-packet update block: for each row, increment
    map[row][h_row(flow)]. *)
let update_block ?(name = "cms_update") cfg =
  block name
    [ loop cfg.depth
        [ map_incr cfg.map_name
            [ meta "_loop_i"; column_expr cfg (meta "_loop_i") ] ] ]

(** A program holding just the sketch (for single-app deployments). *)
let program ?(owner = "infra") ?(cfg = default_config) () =
  Builder.program ~owner "cm_sketch" ~maps:[ sketch_map cfg ]
    [ update_block cfg ]

(* Host-side query --------------------------------------------------- *)

(* must mirror the data layout of [column_expr]: Hash(Crc32, row::flow) *)
let column cfg ~row ~src ~dst ~proto =
  let h = Interp.crc32 [ Int64.of_int row; src; dst; proto ] in
  Int64.rem h (Int64.of_int cfg.width)

(** Point query: estimated count of a flow = min over rows. *)
let estimate cfg state ~src ~dst ~proto =
  let rec go row best =
    if row >= cfg.depth then best
    else begin
      let col = column cfg ~row ~src ~dst ~proto in
      let v = State.get state [| Int64.of_int row; col |] in
      go (row + 1) (min best v)
    end
  in
  go 0 Int64.max_int

(** Estimate from a device hosting the sketch. *)
let estimate_on_device cfg dev ~src ~dst ~proto =
  match Targets.Device.map_state dev cfg.map_name with
  | None -> 0L
  | Some st -> estimate cfg st ~src ~dst ~proto

(** Ground-truth exact counter, used to measure sketch error in tests. *)
module Exact = struct
  type t = (int64 * int64 * int64, int) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let add t ~src ~dst ~proto =
    let k = (src, dst, proto) in
    Hashtbl.replace t k (1 + Option.value (Hashtbl.find_opt t k) ~default:0)

  let count t ~src ~dst ~proto =
    Option.value (Hashtbl.find_opt t (src, dst, proto)) ~default:0
end
