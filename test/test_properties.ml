(* Property-based tests (qcheck) on the core data structures and
   invariants: event-queue ordering, state-encoding agreement and
   snapshot roundtrips, the slot LRU against the tick-and-fold model it
   replaced, pattern matching, expression totality, patch
   reversibility, sketch soundness, placement conservation, and glob
   semantics. *)

open Flexbpf

let to_alcotest = QCheck_alcotest.to_alcotest

(* -- Event queue: pops come out time-sorted ------------------------------- *)

let prop_event_queue_sorted =
  QCheck.Test.make ~name:"event queue pops sorted" ~count:200
    QCheck.(list (float_bound_inclusive 1000.))
    (fun times ->
      let q = Netsim.Event_queue.create () in
      List.iteri
        (fun i time -> Netsim.Event_queue.push q ~time ~seq:i i)
        times;
      let rec drain acc =
        if Netsim.Event_queue.is_empty q then List.rev acc
        else begin
          let time = Netsim.Event_queue.min_time q in
          ignore (Netsim.Event_queue.pop_exn q : int);
          drain (time :: acc)
        end
      in
      let out = drain [] in
      out = List.sort compare times)

(* -- State encodings -------------------------------------------------------- *)

type map_op = Put of int * int | Incr of int * int | Del of int

let op_gen =
  QCheck.Gen.(
    oneof
      [ map2 (fun k v -> Put (k, v)) (int_bound 30) (int_bound 1000);
        map2 (fun k v -> Incr (k, v)) (int_bound 30) (int_bound 100);
        map (fun k -> Del k) (int_bound 30) ])

let op_print = function
  | Put (k, v) -> Printf.sprintf "put %d %d" k v
  | Incr (k, v) -> Printf.sprintf "incr %d %d" k v
  | Del k -> Printf.sprintf "del %d" k

let ops_arb = QCheck.make ~print:(fun l -> String.concat ";" (List.map op_print l))
    QCheck.Gen.(list_size (int_bound 60) op_gen)

let apply_ops st ops =
  List.iter
    (fun op ->
      match op with
      | Put (k, v) -> State.put st [| Int64.of_int k |] (Int64.of_int v)
      | Incr (k, v) -> State.incr st [| Int64.of_int k |] (Int64.of_int v)
      | Del k -> State.del st [| Int64.of_int k |])
    ops

(* With capacity above the key range, flow-state and stateful-table
   encodings are observationally identical. *)
let prop_encodings_agree =
  QCheck.Test.make ~name:"flow_state = stateful_table under capacity"
    ~count:300 ops_arb (fun ops ->
      let a = State.create ~name:"m" ~size:64 State.Flow_state in
      let b = State.create ~name:"m" ~size:64 State.Stateful_table in
      apply_ops a ops;
      apply_ops b ops;
      State.snapshot a = State.snapshot b)

(* Snapshot/restore is the identity for exact encodings. *)
let prop_snapshot_roundtrip =
  QCheck.Test.make ~name:"snapshot/restore identity" ~count:300 ops_arb
    (fun ops ->
      let st = State.create ~name:"m" ~size:64 State.Stateful_table in
      apply_ops st ops;
      let snap = State.snapshot st in
      let restored = State.restore ~name:"m" ~size:64 State.Flow_state snap in
      State.snapshot restored = snap)

(* Register aliasing can only merge entries, never invent keys. *)
let prop_registers_subset =
  QCheck.Test.make ~name:"register keys are a subset" ~count:300 ops_arb
    (fun ops ->
      let exact = State.create ~name:"m" ~size:64 State.Stateful_table in
      let regs = State.create ~name:"m" ~size:8 State.Registers in
      apply_ops exact ops;
      apply_ops regs ops;
      let exact_keys = List.map fst (State.entries exact) in
      List.for_all
        (fun (k, _) -> List.mem k exact_keys)
        (State.entries regs))

(* -- LRU: slot list against the tick-and-fold reference ----------------------- *)

(* The LRU the stores used before the slot list, kept as the reference
   model: every binding carries the tick of its last touch, and an
   insert into a full store folds the whole table for the smallest
   tick. Keys are lists, as they were then, so the snapshot order
   ([List.sort compare] over list keys) is checked too. *)
module Ref_lru = struct
  type cell = { mutable v : int64; mutable touched : int }

  type t = {
    tbl : (int64 list, cell) Hashtbl.t;
    mutable cap : int;
    mutable tick : int;
    mutable evictions : int;
  }

  let create cap = { tbl = Hashtbl.create 8; cap; tick = 0; evictions = 0 }

  let touch t c =
    t.tick <- t.tick + 1;
    c.touched <- t.tick

  let find t k =
    match Hashtbl.find_opt t.tbl k with
    | Some c -> touch t c; Some c.v
    | None -> None

  let evict_lru t =
    let victim =
      Hashtbl.fold
        (fun k c acc ->
          match acc with
          | Some (_, best) when best <= c.touched -> acc
          | _ -> Some (k, c.touched))
        t.tbl None
    in
    match victim with
    | Some (k, _) ->
      Hashtbl.remove t.tbl k;
      t.evictions <- t.evictions + 1
    | None -> ()

  (* store [f old] (old = 0 when absent), touching or inserting *)
  let update t k f =
    match Hashtbl.find_opt t.tbl k with
    | Some c -> c.v <- f c.v; touch t c
    | None ->
      if Hashtbl.length t.tbl >= t.cap then evict_lru t;
      t.tick <- t.tick + 1;
      Hashtbl.replace t.tbl k { v = f 0L; touched = t.tick }

  let remove t k =
    let present = Hashtbl.mem t.tbl k in
    Hashtbl.remove t.tbl k;
    present

  let entries t =
    Hashtbl.fold (fun k c acc -> (k, c.v) :: acc) t.tbl [] |> List.sort compare
end

type lru_op =
  | L_get of int64 list
  | L_put of int64 list * int
  | L_incr of int64 list * int
  | L_del of int64 list
  | L_flush of int option

(* Keys of arity 0-2 over a small word pool, so stores fill, evict,
   and hold keys that are prefixes of one another. The pool mixes small
   values with ones that differ only above bit 32 or in the sign, which
   a weak hash folds together; capacities up to 48 make the index
   resize several times and hold long probe runs, and deletes are
   frequent enough to shift those runs back. *)
let lru_word_pool =
  [| 0L; 1L; 2L; 3L; 0x1_0000_0000L; 0x3_0000_0000L; -1L; Int64.min_int |]

let lru_key_gen =
  QCheck.Gen.(
    list_size (int_bound 2)
      (map (fun i -> lru_word_pool.(i)) (int_bound (Array.length lru_word_pool - 1))))

let lru_cap_gen = QCheck.Gen.(oneof [ int_range 1 6; int_range 7 48 ])

let lru_op_gen =
  QCheck.Gen.(
    frequency
      [ (4, map (fun k -> L_get k) lru_key_gen);
        (3, map2 (fun k v -> L_put (k, v)) lru_key_gen (int_bound 100));
        (3, map2 (fun k v -> L_incr (k, v)) lru_key_gen (int_bound 100));
        (3, map (fun k -> L_del k) lru_key_gen);
        (1, map (fun c -> L_flush c) (opt lru_cap_gen)) ])

let lru_arb =
  let key k = "[" ^ String.concat "," (List.map Int64.to_string k) ^ "]" in
  QCheck.make
    ~print:(fun (cap, ops) ->
      Printf.sprintf "cap=%d: %s" cap
        (String.concat "; "
           (List.map
              (function
                | L_get k -> "get " ^ key k
                | L_put (k, v) -> Printf.sprintf "put %s %d" (key k) v
                | L_incr (k, v) -> Printf.sprintf "incr %s %d" (key k) v
                | L_del k -> "del " ^ key k
                | L_flush c ->
                  "flush " ^ Option.fold ~none:"" ~some:string_of_int c)
              ops)))
    QCheck.Gen.(pair lru_cap_gen (list_size (int_bound 200) lru_op_gen))

(* A key as a flat key: its packed words, first word and length. *)
let flat k = (State.pack (Array.of_list k), 0, List.length k)

let snapshot_lists st =
  List.map (fun (k, v) -> (Array.to_list k, v)) (State.snapshot st).State.snap_entries

(* The stateful-table store evicts exactly the reference's victims:
   same reads, same resident entries in the same snapshot order, same
   eviction count, after every operation. Flush clears the store. *)
let prop_stateful_lru_matches_reference =
  QCheck.Test.make ~name:"stateful table LRU = tick-and-fold reference"
    ~count:500 lru_arb (fun (cap, ops) ->
      let st = State.create ~name:"m" ~size:cap State.Stateful_table in
      let r = Ref_lru.create cap in
      List.for_all
        (fun op ->
          let same_read =
            match op with
            | L_get k ->
              State.get st (Array.of_list k)
              = Option.value (Ref_lru.find r k) ~default:0L
            | L_put (k, v) ->
              State.put st (Array.of_list k) (Int64.of_int v);
              Ref_lru.update r k (fun _ -> Int64.of_int v);
              true
            | L_incr (k, v) ->
              let d = Int64.of_int v in
              State.incr st (Array.of_list k) d;
              Ref_lru.update r k (Int64.add d);
              State.get st (Array.of_list k)
              = (Hashtbl.find r.Ref_lru.tbl k).Ref_lru.v
            | L_del k ->
              State.del st (Array.of_list k);
              ignore (Ref_lru.remove r k);
              true
            | L_flush _ ->
              State.clear st;
              Hashtbl.reset r.Ref_lru.tbl;
              true
          in
          same_read
          && snapshot_lists st = Ref_lru.entries r
          && State.evictions st = r.Ref_lru.evictions)
        ops)

(* The device tier against the same reference: find/promote/demote/
   flush (with resizes) must keep the same resident set and the same
   hit, miss, promotion, eviction and demotion counts. *)
let prop_tier_lru_matches_reference =
  QCheck.Test.make ~name:"device-tier LRU = tick-and-fold reference"
    ~count:500 lru_arb (fun (cap, ops) ->
      let t = State.Tier.create ~cap in
      let r = Ref_lru.create cap in
      let hits = ref 0 and misses = ref 0 and promotions = ref 0
      and demotions = ref 0 in
      List.for_all
        (fun op ->
          let same_read =
            match op with
            | L_get k ->
              let got =
                let b, o, n = flat k in
                match State.Tier.find t b o n with
                | v -> Some v
                | exception Not_found -> None
              in
              let want = Ref_lru.find r k in
              if want = None then incr misses else incr hits;
              got = want
            | L_put (k, v) | L_incr (k, v) ->
              (let b, o, n = flat k in
               State.Tier.promote t b o n (Int64.of_int v));
              if not (Hashtbl.mem r.Ref_lru.tbl k) then incr promotions;
              let before = r.Ref_lru.evictions in
              Ref_lru.update r k (fun _ -> Int64.of_int v);
              demotions := !demotions + r.Ref_lru.evictions - before;
              true
            | L_del k ->
              (let b, o, n = flat k in
               State.Tier.demote t b o n);
              if Ref_lru.remove r k then incr demotions;
              true
            | L_flush cap ->
              State.Tier.flush ?cap t;
              demotions := !demotions + Hashtbl.length r.Ref_lru.tbl;
              Hashtbl.reset r.Ref_lru.tbl;
              Option.iter (fun c -> r.Ref_lru.cap <- c) cap;
              true
          in
          same_read
          && List.sort compare (List.map Array.to_list (State.Tier.keys t))
             = List.map fst (Ref_lru.entries r)
          && State.Tier.resident t = Hashtbl.length r.Ref_lru.tbl
          && State.Tier.capacity t = r.Ref_lru.cap
          && State.Tier.hits t = !hits
          && State.Tier.misses t = !misses
          && State.Tier.promotions t = !promotions
          && State.Tier.evictions t = r.Ref_lru.evictions
          && State.Tier.demotions t = !demotions)
        ops)

(* -- Flow state and the rule index against a Hashtbl ------------------------- *)

(* The flow-state store against a bounded [Hashtbl]: same reads and
   [incr] results, same overflow count, same resident set after every
   operation. Flushes clear both; the overflow count is cumulative. *)
let prop_flow_state_matches_hashtbl =
  QCheck.Test.make ~name:"flow state = bounded Hashtbl reference" ~count:500
    lru_arb (fun (cap, ops) ->
      let st = State.create ~name:"m" ~size:cap State.Flow_state in
      let r = Hashtbl.create 8 and overflow = ref 0 in
      let write k v =
        if Hashtbl.mem r k || Hashtbl.length r < cap then Hashtbl.replace r k v
        else incr overflow
      in
      List.for_all
        (fun op ->
          let same_read =
            match op with
            | L_get k ->
              State.get st (Array.of_list k)
              = Option.value (Hashtbl.find_opt r k) ~default:0L
            | L_put (k, v) ->
              State.put st (Array.of_list k) (Int64.of_int v);
              write k (Int64.of_int v);
              true
            | L_incr (k, v) ->
              let d = Int64.of_int v in
              let want =
                Int64.add d (Option.value (Hashtbl.find_opt r k) ~default:0L)
              in
              write k want;
              State.incr st (Array.of_list k) d;
              (* an overflowed write stores nothing, in both *)
              State.get st (Array.of_list k)
              = Option.value (Hashtbl.find_opt r k) ~default:0L
            | L_del k ->
              State.del st (Array.of_list k);
              Hashtbl.remove r k;
              true
            | L_flush _ ->
              State.clear st;
              Hashtbl.reset r;
              true
          in
          same_read
          && State.overflows st = !overflow
          && State.size st = Hashtbl.length r
          && snapshot_lists st
             = List.sort compare (List.of_seq (Hashtbl.to_seq r)))
        ops)

(* The exact-match rule index is insert-only: adds of absent keys (a
   present key keeps its first binding, as the compiler's first-in-
   priority-order rule wins) interleaved with finds of arbitrary keys,
   from a size hint smaller or larger than what is added. *)
let prop_key_tbl_matches_hashtbl =
  QCheck.Test.make ~name:"Key_tbl = Hashtbl reference" ~count:500
    QCheck.(
      make
        Gen.(
          pair (int_bound 40)
            (list_size (int_bound 200) (pair bool (list_size (int_bound 3)
               (map (fun i -> lru_word_pool.(i))
                  (int_bound (Array.length lru_word_pool - 1))))))))
    (fun (hint, ops) ->
      let t = State.Key_tbl.create hint and r = Hashtbl.create 8 in
      let agrees k =
        let b, o, n = flat k in
        let got =
          match State.Key_tbl.find t b o n with
          | v -> Some v
          | exception Not_found -> None
        in
        got = Hashtbl.find_opt r k && State.Key_tbl.mem t b o n = Hashtbl.mem r k
      in
      List.for_all
        (fun (i, (add, k)) ->
          if add && not (Hashtbl.mem r k) then begin
            (let b, o, n = flat k in
             State.Key_tbl.add t b o n i);
            Hashtbl.replace r k i
          end;
          agrees k)
        (List.mapi (fun i op -> (i, op)) ops)
      && List.for_all (fun (_, k) -> agrees k) ops)

(* -- Pattern matching --------------------------------------------------------- *)

let prop_lpm_matches_self =
  QCheck.Test.make ~name:"lpm matches its own value" ~count:500
    QCheck.(pair (int_bound 0xFFFFFF) (int_bound 32))
    (fun (v, len) ->
      Interp.match_pattern (Int64.of_int v) (Ast.P_lpm (Int64.of_int v, len)))

let prop_lpm_prefix_semantics =
  QCheck.Test.make ~name:"lpm ignores low bits" ~count:500
    QCheck.(triple (int_bound 0xFFFFFF) (int_range 1 31) (int_bound 0xFFFFFF))
    (fun (v, len, other) ->
      let mask = Int64.shift_left (-1L) (32 - len) in
      let same_prefix =
        Int64.logand (Int64.of_int v) mask = Int64.logand (Int64.of_int other) mask
      in
      Interp.match_pattern (Int64.of_int other) (Ast.P_lpm (Int64.of_int v, len))
      = same_prefix)

let prop_ternary_mask =
  QCheck.Test.make ~name:"ternary masks out ignored bits" ~count:500
    QCheck.(triple (int_bound 0xFFFF) (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (v, m, x) ->
      let p = Ast.P_ternary (Int64.of_int v, Int64.of_int m) in
      Interp.match_pattern (Int64.of_int x) p
      = (x land m = v land m))

let prop_range_inclusive =
  QCheck.Test.make ~name:"range is inclusive" ~count:500
    QCheck.(triple small_nat small_nat small_nat)
    (fun (a, b, x) ->
      let lo = min a b and hi = max a b in
      Interp.match_pattern (Int64.of_int x)
        (Ast.P_range (Int64.of_int lo, Int64.of_int hi))
      = (x >= lo && x <= hi))

(* -- Expression evaluation is total --------------------------------------------- *)

let binop_gen =
  QCheck.Gen.oneofl
    [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod; Ast.Band; Ast.Bor;
      Ast.Bxor; Ast.Shl; Ast.Shr; Ast.Eq; Ast.Neq; Ast.Lt; Ast.Le; Ast.Gt;
      Ast.Ge; Ast.Land; Ast.Lor ]

let prop_binop_total =
  QCheck.Test.make ~name:"eval_binop never raises" ~count:1000
    (QCheck.make QCheck.Gen.(triple binop_gen (map Int64.of_int int) (map Int64.of_int int)))
    (fun (op, x, y) ->
      ignore (Interp.eval_binop op x y);
      true)

let prop_bool_ops_boolean =
  QCheck.Test.make ~name:"comparisons yield 0/1" ~count:500
    (QCheck.make QCheck.Gen.(pair (map Int64.of_int int) (map Int64.of_int int)))
    (fun (x, y) ->
      List.for_all
        (fun op ->
          let r = Interp.eval_binop op x y in
          r = 0L || r = 1L)
        [ Ast.Eq; Ast.Neq; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.Land; Ast.Lor ])

(* -- Glob matching ----------------------------------------------------------------- *)

let ident_gen = QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 0 12))

let prop_glob_literal_reflexive =
  QCheck.Test.make ~name:"glob: literal matches itself" ~count:300
    (QCheck.make ~print:Fun.id ident_gen)
    (fun s -> Patch.glob_matches s s)

let prop_glob_star_suffix =
  QCheck.Test.make ~name:"glob: p* matches any extension" ~count:300
    (QCheck.make
       ~print:(fun (a, b) -> a ^ "|" ^ b)
       QCheck.Gen.(pair ident_gen ident_gen))
    (fun (p, ext) -> Patch.glob_matches (p ^ "*") (p ^ ext))

let prop_glob_star_everything =
  QCheck.Test.make ~name:"glob: * matches everything" ~count:300
    (QCheck.make ~print:Fun.id ident_gen)
    (fun s -> Patch.glob_matches "*" s)

let prop_glob_question_length =
  QCheck.Test.make ~name:"glob: ?s match length" ~count:300
    (QCheck.make ~print:Fun.id ident_gen)
    (fun s ->
      Patch.glob_matches (String.make (String.length s) '?') s)

(* -- Patch reversibility --------------------------------------------------------------- *)

let small_block_gen =
  QCheck.Gen.(
    map
      (fun (name, v) ->
        Builder.block ("x_" ^ name)
          [ Builder.set_meta "v" (Builder.const v) ])
      (pair (string_size ~gen:(char_range 'a' 'z') (int_range 1 6)) (int_bound 100)))

let prop_patch_add_remove_identity =
  QCheck.Test.make ~name:"patch: add then remove = identity" ~count:200
    (QCheck.make small_block_gen) (fun el ->
      let base = Apps.L2l3.program () in
      let name = Ast.element_name el in
      QCheck.assume (Ast.find_element base name = None);
      match
        Patch.apply (Patch.v "add" [ Patch.Add_element (Patch.At_end, el) ]) base
      with
      | Error _ -> false
      | Ok (p1, _) ->
        (match
           Patch.apply (Patch.v "rm" [ Patch.Remove_element (Patch.Sel_name name) ]) p1
         with
         | Error _ -> false
         | Ok (p2, _) ->
           List.map Ast.element_name p2.Ast.pipeline
           = List.map Ast.element_name base.Ast.pipeline))

(* Patched programs always typecheck (apply rejects otherwise). *)
let prop_patch_preserves_typing =
  QCheck.Test.make ~name:"patch results typecheck" ~count:200
    (QCheck.make small_block_gen) (fun el ->
      let base = Apps.L2l3.program () in
      QCheck.assume (Ast.find_element base (Ast.element_name el) = None);
      match
        Patch.apply (Patch.v "add" [ Patch.Add_element (Patch.At_start, el) ]) base
      with
      | Error _ -> false
      | Ok (p, _) -> Typecheck.check_program p = Ok ())

(* -- Delta type-checking = whole-program type-checking --------------------------------- *)

(* Small name vocabularies, so that patches collide with the base, hit
   removed maps, and reference headers a later op adds. Every kind of
   typing error is reachable: unknown maps/fields/headers/params, key
   arity, loop bounds, action defaults, sizes, duplicate fields, and
   duplicate element names through a replacement. *)
let dc_maps = [ "m0"; "m1"; "m2"; "m3" ]
let dc_elements = [ "e0"; "e1"; "e2"; "e3"; "e4" ]

let dc_expr_gen =
  QCheck.Gen.(
    frequency
      [ (3, map (fun i -> Builder.const i) (int_bound 9));
        (3, map2 Builder.field (oneofl [ "ipv4"; "ipv4"; "vx"; "nohdr" ])
              (oneofl [ "src"; "dst"; "a"; "zz" ]));
        (2, map2
              (fun m n -> Builder.map_get m (List.init n (fun _ -> Builder.const 1)))
              (oneofl dc_maps) (int_range 1 2));
        (1, map Builder.param (oneofl [ "p"; "q" ])) ])

let dc_stmt_gen =
  QCheck.Gen.(
    frequency
      [ (3, map (fun e -> Builder.set_meta "x" e) dc_expr_gen);
        (3, map3
              (fun m n e -> Builder.map_incr ~by:e m (List.init n (fun _ -> Builder.const 0)))
              (oneofl dc_maps) (int_range 1 2) dc_expr_gen);
        (1, map2 (fun n e -> Builder.loop n [ Builder.set_meta "y" e ])
              (oneofl [ 0; 1; 4; 64; 65 ]) dc_expr_gen);
        (1, map (fun h -> Ast.Push_header h) (oneofl [ "ipv4"; "vx"; "nohdr" ])) ])

let dc_element_gen =
  QCheck.Gen.(
    oneofl dc_elements >>= fun name ->
    frequency
      [ (3, map (fun body -> Builder.block name body)
              (list_size (int_range 1 3) dc_stmt_gen));
        (2, map3
              (fun key body (default, size) ->
                Builder.table name ~keys:[ Builder.exact key ]
                  ~actions:[ Builder.action "act" ~params:[ "p" ] body ]
                  ~default ~size ())
              dc_expr_gen
              (list_size (int_range 1 2) dc_stmt_gen)
              (pair
                 (oneofl [ ("nop", []); ("act", [ 1L ]); ("act", []); ("gone", []) ])
                 (oneofl [ 16; 16; 0 ]))) ])

let dc_map_gen =
  QCheck.Gen.(
    map3
      (fun name key_arity size -> Builder.map_decl ~key_arity ~size name)
      (oneofl dc_maps) (oneofl [ 1; 1; 2; 0 ]) (oneofl [ 8; 8; 0 ]))

let dc_rule_gen =
  QCheck.Gen.(
    map2 Builder.parser_rule (oneofl [ "p0"; "p1"; "p2" ])
      (oneofl [ [ "ethernet"; "ipv4" ]; [ "ethernet"; "vx" ]; [ "nohdr" ] ]))

let dc_header_gen =
  QCheck.Gen.(
    map2 Builder.header (oneofl [ "vx"; "vx"; "ipv4" ])
      (oneofl [ [ ("a", 8); ("b", 8) ]; [ ("a", 8); ("a", 8) ] ]))

(* A well-typed base: one to four elements whose bodies use only the
   base's maps at their declared arity, constants and ipv4 fields
   (checked anyway, and regenerated on the rare miss). *)
let dc_base_gen =
  QCheck.Gen.(
    let raw st =
      let maps =
        List.filter_map
          (fun name ->
            if bool st then
              Some (Builder.map_decl ~key_arity:(int_range 1 2 st) ~size:8 name)
            else None)
          dc_maps
      in
      let expr st =
        match maps with
        | m :: _ when bool st ->
          Builder.map_get m.Ast.map_name
            (List.init m.Ast.key_arity (fun _ -> Builder.const 1))
        | _ -> oneofl [ Builder.const 3; Builder.field "ipv4" "src" ] st
      in
      let stmt st =
        match maps with
        | _ :: _ when bool st ->
          let m = oneofl maps st in
          Builder.map_incr m.Ast.map_name
            (List.init m.Ast.key_arity (fun _ -> Builder.const 0))
        | _ -> Builder.set_meta "x" (expr st)
      in
      let element name =
        if int_bound 2 st = 0 then
          Builder.table name ~keys:[ Builder.exact (expr st) ]
            ~actions:[ Builder.action "act" ~params:[ "p" ] [ stmt st ] ]
            ~default:("act", [ 1L ]) ~size:16 ()
        else Builder.block name (List.init (int_range 1 3 st) (fun _ -> stmt st))
      in
      Builder.program "base" ~maps
        ~parser:(if bool st then [ Builder.parser_rule "p0" [ "ethernet" ] ] else [])
        (List.filteri (fun i _ -> i < int_range 1 4 st) (List.map element dc_elements))
    in
    let rec well_typed st =
      let p = raw st in
      if Typecheck.check_program p = Ok () then p else well_typed st
    in
    well_typed)

(* Ops are drawn against the base: removals, replacements and defaults
   mostly name what it holds, additions mostly bring new names. *)
let dc_op_gen (base : Ast.program) =
  QCheck.Gen.(
    let pick held vocab =
      match held with
      | [] -> oneofl vocab
      | _ -> frequency [ (4, oneofl held); (1, oneofl vocab) ]
    in
    let held_elements = List.map Ast.element_name base.Ast.pipeline in
    let held_maps = List.map (fun (m : Ast.map_decl) -> m.Ast.map_name) base.Ast.maps in
    let sel =
      frequency
        [ (6, map (fun n -> Patch.Sel_name n) (pick held_elements dc_elements));
          (1, return (Patch.Sel_name "e*"));
          (1, map (fun k -> Patch.Sel_kind k) (oneofl [ `Table; `Block ])) ]
    in
    let rename name = function
      | Ast.Block b -> Ast.Block { b with Ast.blk_name = name }
      | Ast.Table t -> Ast.Table { t with Ast.tbl_name = name }
    in
    let fresh_element =
      map2 rename (oneofl [ "f0"; "f1"; "f2"; "e0" ]) dc_element_gen
    in
    let fresh_map =
      map2
        (fun name (m : Ast.map_decl) -> { m with Ast.map_name = name })
        (oneofl [ "m2"; "m3"; "m4"; "m5" ]) dc_map_gen
    in
    frequency
      [ (4, map2 (fun pos el -> Patch.Add_element (pos, el))
              (oneof
                 [ return Patch.At_start; return Patch.At_end;
                   map (fun s -> Patch.Before s) sel;
                   map (fun s -> Patch.After s) sel ])
              fresh_element);
        (2, map (fun s -> Patch.Remove_element s) sel);
        (3, map2 (fun s el -> Patch.Replace_element (s, el)) sel
              (frequency
                 [ (3, map2 rename (pick held_elements dc_elements) dc_element_gen);
                   (1, dc_element_gen) ]));
        (2, map2 (fun s d -> Patch.Set_default (s, d)) sel
              (oneofl [ ("nop", []); ("act", [ 2L ]); ("act", []); ("gone", []) ]));
        (3, map (fun m -> Patch.Add_map m) fresh_map);
        (3, map (fun m -> Patch.Remove_map m) (pick held_maps dc_maps));
        (2, map (fun r -> Patch.Add_parser_rule r) dc_rule_gen);
        (1, map (fun n -> Patch.Remove_parser_rule n)
              (pick (List.map (fun r -> r.Ast.pr_name) base.Ast.parser) [ "p0" ]));
        (2, map (fun h -> Patch.Add_header h) dc_header_gen) ])

let dc_print (base, (patch : Patch.t)) =
  Printf.sprintf "%s\n-- patch: %d ops: %s" (Syntax.print base)
    (List.length patch.Patch.ops)
    (String.concat "; "
       (List.map
          (function
            | Patch.Add_element (_, el) -> "add " ^ Ast.element_name el
            | Patch.Remove_element s -> Fmt.str "remove %a" Patch.pp_selector s
            | Patch.Replace_element (s, el) ->
              Fmt.str "replace %a by %s" Patch.pp_selector s (Ast.element_name el)
            | Patch.Set_default (s, (a, _)) ->
              Fmt.str "default %a %s" Patch.pp_selector s a
            | Patch.Add_map m -> "add map " ^ m.Ast.map_name
            | Patch.Remove_map m -> "remove map " ^ m
            | Patch.Add_parser_rule r -> "add rule " ^ r.Ast.pr_name
            | Patch.Remove_parser_rule r -> "remove rule " ^ r
            | Patch.Add_header h -> "add header " ^ h.Ast.hdr_name)
          patch.Patch.ops))

let dc_arb =
  QCheck.make ~print:dc_print
    QCheck.Gen.(
      dc_base_gen >>= fun base ->
      map
        (fun ops -> (base, Patch.v "p" ops))
        (list_size (int_range 1 3) (dc_op_gen base)))

(* [Patch.apply] checks only the patch's delta; on a well-typed base it
   must accept and reject exactly the patches the whole-program check
   does, with the same error list. *)
let prop_delta_check_is_full_check =
  QCheck.Test.make ~name:"patch: delta check = whole-program check" ~count:3000
    dc_arb (fun (base, patch) ->
      let reference =
        match Patch.apply_ops patch base with
        | Error e -> Error (`Patch e)
        | Ok (prog', diff) ->
          (match Typecheck.check_program prog' with
           | Ok () -> Ok (prog', diff)
           | Error es -> Error (`Ill_typed es))
      in
      Patch.apply patch base = reference)

(* -- Count-min sketch soundness ----------------------------------------------------------- *)

let prop_sketch_never_underestimates =
  QCheck.Test.make ~name:"sketch estimate >= true count" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 10 200) (pair (int_bound 20) (int_bound 5)))
    (fun flows ->
      let cfg = { Apps.Cm_sketch.depth = 2; width = 64; map_name = "cms" } in
      let prog = Apps.Cm_sketch.program ~cfg () in
      let env = Interp.create_env prog in
      let exact = Apps.Cm_sketch.Exact.create () in
      List.iter
        (fun (s, d) ->
          let src = Int64.of_int s and dst = Int64.of_int d in
          let pkt =
            Netsim.Packet.create
              [ Netsim.Packet.ethernet ~src ~dst ();
                Netsim.Packet.ipv4 ~src ~dst ();
                Netsim.Packet.tcp ~sport:1L ~dport:2L () ]
          in
          ignore (Interp.run env prog pkt);
          Apps.Cm_sketch.Exact.add exact ~src ~dst ~proto:6L)
        flows;
      let st = Interp.env_map env "cms" in
      List.for_all
        (fun (s, d) ->
          let src = Int64.of_int s and dst = Int64.of_int d in
          Apps.Cm_sketch.estimate cfg st ~src ~dst ~proto:6L
          >= Int64.of_int (Apps.Cm_sketch.Exact.count exact ~src ~dst ~proto:6L))
        flows)

(* -- Resource vectors ------------------------------------------------------------------------ *)

let res_gen =
  QCheck.Gen.(
    map
      (fun (a, b, c, d) ->
        Targets.Resource.v ~sram_bytes:a ~tcam_bytes:b ~action_slots:c
          ~instructions:d ())
      (quad (int_bound 1000) (int_bound 1000) (int_bound 100) (int_bound 100)))

let prop_resource_add_sub =
  QCheck.Test.make ~name:"resource sub inverts add" ~count:300
    (QCheck.make QCheck.Gen.(pair res_gen res_gen))
    (fun (a, b) -> Targets.Resource.sub (Targets.Resource.add a b) b = a)

let prop_resource_fits_monotone =
  QCheck.Test.make ~name:"fits is monotone in capacity" ~count:300
    (QCheck.make QCheck.Gen.(triple res_gen res_gen res_gen))
    (fun (d, cap, extra) ->
      (not (Targets.Resource.fits d cap))
      || Targets.Resource.fits d (Targets.Resource.add cap extra))

(* -- Placement conservation -------------------------------------------------------------------- *)

let prop_placement_all_or_nothing =
  QCheck.Test.make ~name:"placement installs all elements or none" ~count:50
    QCheck.(int_range 1 40)
    (fun n ->
      let path =
        [ Targets.Device.create ~id:"h" Targets.Arch.host_ebpf;
          Targets.Device.create ~id:"s" Targets.Arch.drmt ]
      in
      let prog =
        Builder.program "p"
          (List.init n (fun i ->
               Builder.block (Printf.sprintf "b%d" i)
                 [ Builder.set_meta "x" (Builder.const i) ]))
      in
      let installed () =
        List.fold_left
          (fun acc d -> acc + List.length (Targets.Device.installed_names d))
          0 path
      in
      match Runtime.Reconfig.place ~path prog with
      | Ok _ -> installed () = n
      | Error _ -> installed () = 0)

(* -- Device invariants -------------------------------------------------------------------------- *)

let element_gen =
  QCheck.Gen.(
    map3
      (fun name size kind ->
        let open Builder in
        match kind with
        | 0 ->
          table ("t" ^ name)
            ~keys:[ exact (field "ipv4" "dst") ]
            ~actions:[ action "a" [ Ast.Nop ] ]
            ~default:("a", []) ~size:(64 + size) ()
        | 1 ->
          table ("l" ^ name)
            ~keys:[ lpm (field "ipv4" "dst") ]
            ~actions:[ action "a" [ Ast.Nop ] ]
            ~default:("a", []) ~size:(64 + size) ()
        | _ -> block ("b" ^ name) [ set_meta "x" (const size) ])
      (string_size ~gen:(char_range 'a' 'z') (int_range 3 8))
      (int_bound 20_000) (int_bound 2))

let prop_install_uninstall_identity =
  QCheck.Test.make ~name:"install;uninstall restores device" ~count:200
    (QCheck.make QCheck.Gen.(pair element_gen (oneofl Targets.Arch.all_kinds)))
    (fun (el, kind) ->
      let dev = Targets.Device.create (Targets.Arch.profile_of_kind kind) in
      let before = Targets.Device.utilization dev in
      let ctx = Builder.program "ctx" [ el ] in
      match Targets.Device.install dev ~ctx ~order:0 el with
      | Error _ -> true (* nothing changed: rejected *)
      | Ok _ ->
        Targets.Device.uninstall dev (Ast.element_name el)
        && Targets.Device.installed_names dev = []
        && Targets.Device.utilization dev = before)

let prop_defragment_preserves_contents =
  QCheck.Test.make ~name:"defragment preserves installed set and order"
    ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 1 10) element_gen))
    (fun els ->
      (* unique names only *)
      let els =
        List.sort_uniq (fun a b -> compare (Ast.element_name a) (Ast.element_name b)) els
      in
      let dev = Targets.Device.create Targets.Arch.rmt in
      let ctx = Builder.program "ctx" els in
      let installed =
        List.filteri
          (fun i el ->
            match Targets.Device.install dev ~ctx ~order:i el with
            | Ok _ -> true
            | Error _ -> false)
          els
        |> List.map Ast.element_name
      in
      (* remove a few to create holes *)
      List.iteri
        (fun i n -> if i mod 2 = 1 then ignore (Targets.Device.uninstall dev n))
        installed;
      let survivors = Targets.Device.installed_names dev in
      ignore (Targets.Device.defragment dev);
      Targets.Device.installed_names dev = survivors
      &&
      (* execution order (pipeline) intact *)
      List.map Ast.element_name (Targets.Device.program dev).Ast.pipeline
      = survivors)

(* -- ECMP ----------------------------------------------------------------------------------------- *)

let prop_ecmp_port_valid =
  QCheck.Test.make ~name:"ecmp picks a valid next hop" ~count:100
    QCheck.(pair (int_range 2 4) (int_bound 1000))
    (fun (spines, salt) ->
      let sim = Netsim.Sim.create () in
      let built =
        Netsim.Topology.leaf_spine ~sim ~spines ~leaves:2 ~hosts_per_leaf:1 ()
      in
      let topo = built.Netsim.Topology.topo in
      let h0 = List.nth built.Netsim.Topology.host_list 0 in
      let h1 = List.nth built.Netsim.Topology.host_list 1 in
      let leaf = List.nth built.Netsim.Topology.switch_list spines in
      let pkt =
        Netsim.Packet.create
          [ Netsim.Packet.ipv4
              ~src:(Int64.of_int h0.Netsim.Node.id)
              ~dst:(Int64.of_int h1.Netsim.Node.id) ();
            Netsim.Packet.tcp ~sport:(Int64.of_int salt) ~dport:80L () ]
      in
      let hops =
        Netsim.Topology.next_hops topo ~src:leaf.Netsim.Node.id
          ~dst:h1.Netsim.Node.id
      in
      match
        Netsim.Topology.ecmp_port topo ~src:leaf.Netsim.Node.id
          ~dst:h1.Netsim.Node.id pkt
      with
      | Some p -> List.mem p hops
      | None -> false)

(* [flow_hash] re-derives the runtime's tuple hash without building the
   tuple; ECMP paths and seeded digests depend on the two agreeing bit
   for bit. Packets carry tcp, udp, both or neither, with or without
   ipv4, and field values that are negative or exceed 32 bits. *)
let flow_hash_field_gen =
  QCheck.Gen.(
    oneof
      [ map Int64.of_int (int_range (-5) 70_000);
        map Int64.of_int int;
        map2
          (fun hi lo ->
            Int64.logor (Int64.shift_left (Int64.of_int hi) 32)
              (Int64.of_int (lo land 0xFFFF_FFFF)))
          int int ])

let flow_hash_pkt_gen =
  QCheck.Gen.(
    let f = flow_hash_field_gen in
    let ip =
      opt (map3 (fun src dst proto -> Netsim.Packet.ipv4 ~src ~dst ~proto ()) f f f)
    in
    let tcp = map2 (fun sport dport -> Netsim.Packet.tcp ~sport ~dport ()) f f in
    let udp = map2 (fun sport dport -> Netsim.Packet.udp ~sport ~dport ()) f f in
    let l4 =
      oneof
        [ return []; map (fun h -> [ h ]) tcp; map (fun h -> [ h ]) udp;
          map2 (fun u t -> [ u; t ]) udp tcp ]
    in
    map2
      (fun ip l4 ->
        Netsim.Packet.create
          ((Netsim.Packet.ethernet ~src:1L ~dst:2L () :: Option.to_list ip) @ l4))
      ip l4)

let prop_flow_hash_is_tuple_hash =
  QCheck.Test.make ~name:"flow_hash = tuple hash of five_tuple" ~count:1000
    (QCheck.make ~print:(Fmt.to_to_string Netsim.Packet.pp) flow_hash_pkt_gen)
    (fun p ->
      Netsim.Packet.flow_hash p
      = abs (Hashtbl.hash (Netsim.Packet.five_tuple p)))

(* -- Merge cross product ----------------------------------------------------------------------------- *)

let prop_merge_rule_count =
  QCheck.Test.make ~name:"merged rules = cross product" ~count:100
    QCheck.(pair (int_bound 8) (int_bound 8))
    (fun (na, nb) ->
      let mk n = List.init n (fun i ->
          Builder.rule ~matches:[ Builder.exact_i i ] ~action:("a", []) ())
      in
      List.length (Compiler.Merge.merge_rules (mk na) (mk nb)) = na * nb)

(* -- Surface syntax and the verifier -------------------------------------- *)

(* A richer program generator than test_syntax's block-only one: declared
   maps under every encoding, map get/put/incr/del statements, and a
   match/action table — exercising the printer's full declaration
   surface. Constants are non-negative (a printed "-5" reparses as
   Un (Neg, Const 5)). *)

let vmeta_gen =
  QCheck.Gen.(
    map (fun s -> "m" ^ s) (string_size ~gen:(char_range 'a' 'z') (int_range 1 4)))

let vexpr_gen =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then
          oneof
            [ map (fun v -> Ast.Const (Int64.of_int v)) (int_bound 1000);
              map (fun m -> Ast.Meta m) vmeta_gen;
              return (Ast.Field ("ipv4", "src"));
              return (Ast.Field ("tcp", "dport"));
              map (fun k -> Ast.Map_get ("m0", [ Ast.Const (Int64.of_int k) ]))
                (int_bound 63) ]
        else
          oneof
            [ map3
                (fun op a b -> Ast.Bin (op, a, b))
                (oneofl
                   [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod; Ast.Band;
                     Ast.Bor; Ast.Shl; Ast.Shr; Ast.Eq; Ast.Lt; Ast.Ge;
                     Ast.Land; Ast.Lor ])
                (self (n / 2)) (self (n / 2));
              map2
                (fun alg es -> Ast.Hash (alg, es))
                (oneofl [ Ast.Crc16; Ast.Crc32 ])
                (list_size (int_range 1 3) (self (n / 3))) ]))

let vstmt_gen =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [ return Ast.Nop; return Ast.Drop;
              map2 (fun m e -> Ast.Set_meta (m, e)) vmeta_gen vexpr_gen;
              map (fun e -> Ast.Set_field ("ipv4", "ttl", e)) vexpr_gen;
              map2 (fun k v -> Ast.Map_put ("m0", [ Ast.Const (Int64.of_int k) ],
                                            Ast.Const (Int64.of_int v)))
                (int_bound 63) (int_bound 100);
              map3 (fun a b v -> Ast.Map_incr ("m1",
                                               [ Ast.Const (Int64.of_int a);
                                                 Ast.Const (Int64.of_int b) ], v))
                (int_bound 30) (int_bound 30) vexpr_gen;
              map (fun k -> Ast.Map_del ("m0", [ Ast.Const (Int64.of_int k) ]))
                (int_bound 63);
              map (fun e -> Ast.Forward e) vexpr_gen;
              map (fun d -> Ast.Punt d) vmeta_gen ]
        in
        if n <= 0 then leaf
        else
          oneof
            [ leaf;
              map3
                (fun c th el -> Ast.If (c, th, el))
                vexpr_gen
                (list_size (int_bound 3) (self (n / 3)))
                (list_size (int_bound 2) (self (n / 3)));
              map2 (fun k body -> Ast.Loop (1 + k, body)) (int_bound 7)
                (list_size (int_range 1 3) (self (n / 3))) ]))

let vtable_gen =
  QCheck.Gen.(
    map2
      (fun kinds size ->
        Builder.table "t0"
          ~keys:
            (List.map
               (fun kind -> (Ast.Field ("ipv4", "dst"), kind))
               kinds)
          ~actions:
            [ Builder.action "set_port" ~params:[ "p" ]
                [ Ast.Forward (Ast.Param "p") ];
              Builder.action "refuse" [ Ast.Drop ] ]
          ~default:("refuse", []) ~size ())
      (list_size (int_range 1 3)
         (oneofl [ Ast.Exact; Ast.Lpm; Ast.Ternary; Ast.Range ]))
      (int_range 1 512))

let vprogram_gen =
  QCheck.Gen.(
    map3
      (fun encodings blocks tbl ->
        let enc0, enc1 = encodings in
        Builder.program "pgen"
          ~maps:
            [ Builder.map_decl ~encoding:enc0 ~key_arity:1 ~size:64 "m0";
              Builder.map_decl ~encoding:enc1 ~key_arity:2 ~size:128 "m1" ]
          (List.mapi
             (fun i body -> Builder.block (Printf.sprintf "b%d" i) body)
             blocks
           @ [ tbl ]))
      (pair
         (oneofl
            [ Ast.Enc_auto; Ast.Enc_registers; Ast.Enc_flow_state;
              Ast.Enc_stateful_table ])
         (oneofl [ Ast.Enc_auto; Ast.Enc_registers ]))
      (list_size (int_range 1 3) (list_size (int_range 1 4) vstmt_gen))
      vtable_gen)

let vprogram_arb = QCheck.make ~print:Syntax.print vprogram_gen

let prop_full_roundtrip =
  QCheck.Test.make ~name:"print/parse round-trip (maps+tables)" ~count:200
    vprogram_arb
    (fun p ->
      match Syntax.parse_program_result (Syntax.print p) with
      | Error _ -> false
      | Ok p' -> p' = p)

let prop_verifier_deterministic =
  QCheck.Test.make ~name:"verifier is deterministic" ~count:100 vprogram_arb
    (fun p ->
      let d1 = Verifier.check p in
      let d2 = Verifier.check p in
      (* ... and insensitive to physical identity: a structurally equal
         program obtained by reprinting yields the same findings *)
      let d3 =
        match Syntax.parse_program_result (Syntax.print p) with
        | Ok p' -> Verifier.check p'
        | Error _ -> []
      in
      d1 = d2 && d1 = d3)

let prop_verifier_total =
  QCheck.Test.make ~name:"verifier total on ill-typed input" ~count:100
    vprogram_arb
    (fun p ->
      (* break the program: reference an undeclared map *)
      let broken =
        { p with
          Ast.pipeline =
            Builder.block "bad"
              [ Ast.Map_incr ("ghost", [ Ast.Const 0L ], Ast.Const 1L) ]
            :: p.Ast.pipeline }
      in
      match Verifier.check broken with
      | ds -> List.exists (fun d -> d.Diagnostics.code = "FBV000") ds
      | exception _ -> false)

let () =
  Alcotest.run "properties"
    [ ( "event_queue", [ to_alcotest prop_event_queue_sorted ] );
      ( "state",
        [ to_alcotest prop_encodings_agree;
          to_alcotest prop_snapshot_roundtrip;
          to_alcotest prop_registers_subset;
          to_alcotest prop_stateful_lru_matches_reference;
          to_alcotest prop_tier_lru_matches_reference;
          to_alcotest prop_flow_state_matches_hashtbl;
          to_alcotest prop_key_tbl_matches_hashtbl ] );
      ( "patterns",
        [ to_alcotest prop_lpm_matches_self;
          to_alcotest prop_lpm_prefix_semantics;
          to_alcotest prop_ternary_mask;
          to_alcotest prop_range_inclusive ] );
      ( "eval",
        [ to_alcotest prop_binop_total; to_alcotest prop_bool_ops_boolean ] );
      ( "glob",
        [ to_alcotest prop_glob_literal_reflexive;
          to_alcotest prop_glob_star_suffix;
          to_alcotest prop_glob_star_everything;
          to_alcotest prop_glob_question_length ] );
      ( "patch",
        [ to_alcotest prop_patch_add_remove_identity;
          to_alcotest prop_patch_preserves_typing;
          to_alcotest prop_delta_check_is_full_check ] );
      ( "sketch", [ to_alcotest prop_sketch_never_underestimates ] );
      ( "resources",
        [ to_alcotest prop_resource_add_sub;
          to_alcotest prop_resource_fits_monotone ] );
      ( "placement", [ to_alcotest prop_placement_all_or_nothing ] );
      ( "device",
        [ to_alcotest prop_install_uninstall_identity;
          to_alcotest prop_defragment_preserves_contents ] );
      ( "ecmp",
        [ to_alcotest prop_ecmp_port_valid;
          to_alcotest prop_flow_hash_is_tuple_hash ] );
      ( "merge", [ to_alcotest prop_merge_rule_count ] );
      ( "syntax",
        [ to_alcotest prop_full_roundtrip ] );
      ( "verifier",
        [ to_alcotest prop_verifier_deterministic;
          to_alcotest prop_verifier_total ] ) ]
