(** The incremental-change DSL (§3.2).

    Runtime changes "need not specify a complete network processing
    stack — they are simply additions, deletions, or changes to the
    existing programs". A patch pairs *selectors* (name-pattern matching
    over the base program, as the paper proposes) with structural
    operations. Applying a patch produces the new program plus a [diff]
    that the incremental compiler turns into a minimal reconfiguration
    plan. *)

open Ast

(* Glob matching: '*' matches any substring, '?' any one character.
   Staged on the pattern: [glob_matches p] inspects [p] once, and a
   pattern without wildcards is plain string equality. *)
let glob_matches pattern =
  if not (String.exists (fun c -> c = '*' || c = '?') pattern) then
    String.equal pattern
  else
    let np = String.length pattern in
    fun s ->
      let ns = String.length s in
      (* patterns are tiny, so plain recursion is fine *)
      let rec go i j =
        if i = np then j = ns
        else
          match pattern.[i] with
          | '*' -> go (i + 1) j || (j < ns && go i (j + 1))
          | '?' -> j < ns && go (i + 1) (j + 1)
          | c -> j < ns && s.[j] = c && go (i + 1) (j + 1)
      in
      go 0 0

type selector =
  | Sel_name of string (* glob over element names *)
  | Sel_kind of [ `Table | `Block ]
  | Sel_and of selector * selector
  | Sel_or of selector * selector

(* Staged like [glob_matches]: bind [selector_matches sel] once per
   scan. *)
let rec selector_matches sel : element -> bool =
  match sel with
  | Sel_name pattern ->
    let m = glob_matches pattern in
    fun e -> m (element_name e)
  | Sel_kind `Table -> (function Table _ -> true | Block _ -> false)
  | Sel_kind `Block -> (function Block _ -> true | Table _ -> false)
  | Sel_and (a, b) ->
    let ma = selector_matches a and mb = selector_matches b in
    fun e -> ma e && mb e
  | Sel_or (a, b) ->
    let ma = selector_matches a and mb = selector_matches b in
    fun e -> ma e || mb e

let rec pp_selector ppf = function
  | Sel_name p -> Fmt.pf ppf "name(%s)" p
  | Sel_kind `Table -> Fmt.string ppf "kind(table)"
  | Sel_kind `Block -> Fmt.string ppf "kind(block)"
  | Sel_and (a, b) -> Fmt.pf ppf "(%a & %a)" pp_selector a pp_selector b
  | Sel_or (a, b) -> Fmt.pf ppf "(%a | %a)" pp_selector a pp_selector b

type position =
  | At_start
  | At_end
  | Before of selector
  | After of selector

type op =
  | Add_element of position * element
  | Remove_element of selector
  | Replace_element of selector * element
  | Set_default of selector * (string * int64 list)
  | Add_parser_rule of parser_rule
  | Remove_parser_rule of string
  | Add_map of map_decl
  | Remove_map of string
  | Add_header of header_decl

type t = { patch_name : string; patch_owner : string; ops : op list }

let v ?(owner = "infra") name ops =
  { patch_name = name; patch_owner = owner; ops }

(** What changed, by element name — consumed by Compiler.Incremental. *)
type diff = {
  added : string list;
  removed : string list;
  modified : string list; (* replaced elements or default changes *)
  parser_changed : bool;
  maps_added : string list;
  maps_removed : string list;
}

let empty_diff =
  { added = []; removed = []; modified = []; parser_changed = false;
    maps_added = []; maps_removed = [] }

let merge_diff a b =
  { added = a.added @ b.added;
    removed = a.removed @ b.removed;
    modified = a.modified @ b.modified;
    parser_changed = a.parser_changed || b.parser_changed;
    maps_added = a.maps_added @ b.maps_added;
    maps_removed = a.maps_removed @ b.maps_removed }

let diff_size d =
  List.length d.added + List.length d.removed + List.length d.modified

type error =
  | Selector_no_match of selector
  | Duplicate_name of string
  | Unknown_name of string
  | Not_a_table of string

let pp_error ppf = function
  | Selector_no_match s -> Fmt.pf ppf "selector %a matches nothing" pp_selector s
  | Duplicate_name n -> Fmt.pf ppf "name %s already exists" n
  | Unknown_name n -> Fmt.pf ppf "unknown name %s" n
  | Not_a_table n -> Fmt.pf ppf "%s is not a table" n

(* Insert [el] relative to the first element matching the selector. *)
let insert_at position el pipeline =
  let insert sel ~after =
    let matches = selector_matches sel in
    let rec go = function
      | [] -> None
      | e :: rest when matches e ->
        Some (if after then e :: el :: rest else el :: e :: rest)
      | e :: rest -> Option.map (fun r -> e :: r) (go rest)
    in
    match go pipeline with
    | Some p -> Ok p
    | None -> Error (Selector_no_match sel)
  in
  match position with
  | At_start -> Ok (el :: pipeline)
  | At_end -> Ok (pipeline @ [ el ])
  | Before sel -> insert sel ~after:false
  | After sel -> insert sel ~after:true

let apply_op (prog, diff) op =
  match op with
  | Add_element (position, el) ->
    let name = element_name el in
    if List.exists (fun e -> element_name e = name) prog.pipeline then
      Error (Duplicate_name name)
    else
      Result.map
        (fun pipeline ->
          ({ prog with pipeline },
           merge_diff diff { empty_diff with added = [ name ] }))
        (insert_at position el prog.pipeline)
  | Remove_element sel ->
    let matches = selector_matches sel in
    let removed, pipeline = List.partition matches prog.pipeline in
    if removed = [] then Error (Selector_no_match sel)
    else
      Ok
        ({ prog with pipeline },
         merge_diff diff
           { empty_diff with removed = List.map element_name removed })
  | Replace_element (sel, el) ->
    let matches = selector_matches sel in
    let modified =
      List.filter matches prog.pipeline |> List.map element_name
    in
    if modified = [] then Error (Selector_no_match sel)
    else
      Ok
        ({ prog with
           pipeline =
             List.map (fun e -> if matches e then el else e) prog.pipeline },
         merge_diff diff { empty_diff with modified })
  | Set_default (sel, default_action) ->
    let matches = selector_matches sel in
    let matched = List.filter matches prog.pipeline in
    if matched = [] then Error (Selector_no_match sel)
    else if List.exists (function Block _ -> true | Table _ -> false) matched
    then
      Error
        (Not_a_table
           (element_name
              (List.find (function Block _ -> true | _ -> false) matched)))
    else
      Ok
        ({ prog with
           pipeline =
             List.map
               (fun e ->
                 match e with
                 | Table t when matches e ->
                   Table { t with default_action }
                 | e -> e)
               prog.pipeline },
         merge_diff diff
           { empty_diff with modified = List.map element_name matched })
  | Add_parser_rule r ->
    if List.exists (fun x -> x.pr_name = r.pr_name) prog.parser then
      Error (Duplicate_name r.pr_name)
    else
      Ok
        ({ prog with parser = prog.parser @ [ r ] },
         merge_diff diff { empty_diff with parser_changed = true })
  | Remove_parser_rule name ->
    if List.exists (fun x -> x.pr_name = name) prog.parser then
      Ok
        ({ prog with parser = List.filter (fun x -> x.pr_name <> name) prog.parser },
         merge_diff diff { empty_diff with parser_changed = true })
    else Error (Unknown_name name)
  | Add_map m ->
    if List.exists (fun (x : map_decl) -> x.map_name = m.map_name) prog.maps
    then Error (Duplicate_name m.map_name)
    else
      Ok
        ({ prog with maps = prog.maps @ [ m ] },
         merge_diff diff { empty_diff with maps_added = [ m.map_name ] })
  | Remove_map name ->
    if List.exists (fun (x : map_decl) -> x.map_name = name) prog.maps then
      Ok
        ({ prog with
           maps = List.filter (fun (x : map_decl) -> x.map_name <> name) prog.maps },
         merge_diff diff { empty_diff with maps_removed = [ name ] })
    else Error (Unknown_name name)
  | Add_header h ->
    if List.exists (fun x -> x.hdr_name = h.hdr_name) prog.headers then
      Error (Duplicate_name h.hdr_name)
    else
      Ok ({ prog with headers = prog.headers @ [ h ] }, diff)

let apply_ops patch prog =
  let rec go acc = function
    | [] -> Ok acc
    | op :: rest ->
      (match apply_op acc op with Ok acc -> go acc rest | Error _ as e -> e)
  in
  go (prog, empty_diff) patch.ops

(* The delta check. The base is well typed, and no op can remove a
   header or change a declaration in place, so only what the patch
   brings in can fail, plus any element still referencing a removed
   map. Each op's contribution is checked against the patched program
   [prog']; items added and then removed again are checked anyway,
   which can only over-report. [false] means "maybe ill typed": the
   caller then runs the whole-program check, which decides and reports. *)
let delta_ok prog' ops =
  let ok_element el = Typecheck.check_element prog' el = [] in
  (* a replacement may duplicate a name (a selector matching several
     elements, or a rename onto an existing one) *)
  let unique name =
    let rec count n = function
      | [] -> n
      | e :: rest ->
        count (if String.equal (element_name e) name then n + 1 else n) rest
    in
    count 0 prog'.pipeline = 1
  in
  let removed_maps =
    List.filter_map (function Remove_map m -> Some m | _ -> None) ops
  in
  let rec removed m = function
    | [] -> false
    | r :: rest -> String.equal r m || removed m rest
  in
  let uses_removed found m = found || removed m removed_maps in
  List.for_all
    (function
      | Add_element (_, el) -> ok_element el
      | Replace_element (_, el) -> ok_element el && unique (element_name el)
      | Set_default (sel, _) ->
        let matches = selector_matches sel in
        List.for_all (fun e -> not (matches e) || ok_element e) prog'.pipeline
      | Add_map m -> Typecheck.check_map_decl m = []
      | Add_parser_rule r -> Typecheck.check_parser_rule prog' r = []
      | Add_header h -> Typecheck.check_header h = []
      | Remove_element _ | Remove_parser_rule _ | Remove_map _ -> true)
    ops
  && (removed_maps = []
      || not
           (List.exists
              (fun el -> fold_element_maps uses_removed false el)
              prog'.pipeline))

let check_base = Typecheck.check_program

(** Apply all operations in order to a well-typed [prog]; the result is
    type-checked by the delta check, so a patch can never produce an
    ill-formed program. *)
let apply patch prog =
  match apply_ops patch prog with
  | Error e -> Error (`Patch e)
  | Ok (prog', diff) ->
    if delta_ok prog' patch.ops then Ok (prog', diff)
    else
      (match check_base prog' with
       | Ok () -> Ok (prog', diff)
       | Error errs -> Error (`Ill_typed errs))
