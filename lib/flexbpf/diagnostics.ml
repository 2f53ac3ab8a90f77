(** Unified diagnostics for the FlexBPF verifier (§2, §3.1).

    Every verifier pass reports findings through this one type so that
    tools — the [flexnet lint] CLI, the admission pipeline in
    [Control.Tenants], and the certification gate in [Analysis] — can
    treat "what the verifier thinks of a program" uniformly: stable
    codes for machine consumption, severities for gating, and
    [element/action/stmt-index] paths for pointing at the offending
    construct. *)

type severity = Info | Warning | Error

let severity_rank = function Info -> 0 | Warning -> 1 | Error -> 2

let compare_severity a b = compare (severity_rank a) (severity_rank b)

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let severity_of_string s =
  match String.lowercase_ascii s with
  | "info" -> Some Info
  | "warning" | "warn" -> Some Warning
  | "error" -> Some Error
  | _ -> None

let pp_severity ppf s = Fmt.string ppf (severity_to_string s)

type t = {
  code : string; (* stable, e.g. "FBV001" *)
  pass : string; (* pass name, e.g. "uninit-read" *)
  severity : severity;
  path : string; (* location, e.g. "guard/stmt.2" or "map/cms" *)
  message : string;
}

let v ~code ~pass ~severity ~path fmt =
  Printf.ksprintf (fun message -> { code; pass; severity; path; message }) fmt

(* Total order: severity (most severe first), then code, path, message —
   deterministic regardless of pass traversal order, which is what the
   verifier-determinism property and snapshot tests rely on. *)
let compare a b =
  match compare_severity b.severity a.severity with
  | 0 -> Stdlib.compare (a.code, a.path, a.message) (b.code, b.path, b.message)
  | c -> c

let normalize ds = List.sort_uniq compare ds

let pp ppf d =
  Fmt.pf ppf "%s %s [%s] %s: %s"
    (severity_to_string d.severity)
    d.code d.pass d.path d.message

(* One finding per line, tab-separated: code, severity, pass, path,
   message. Greppable and stable — the machine-readable lint output. *)
let to_tsv d =
  String.concat "\t"
    [ d.code; severity_to_string d.severity; d.pass; d.path; d.message ]

let sarif_level = function
  | Info -> "note"
  | Warning -> "warning"
  | Error -> "error"

(* SARIF 2.1.0 export: one run, one result per finding, with the pass
   carried as the rule's short description and the verifier path as a
   logical location. CI uploads these for code-scanning annotation. *)
let to_sarif ?(uri = "<input>") ds =
  let json_escape = Obs.Export.json_escape in
  let rules =
    List.sort_uniq Stdlib.compare (List.map (fun d -> (d.code, d.pass)) ds)
  in
  let rule (code, pass) =
    Printf.sprintf
      "{\"id\":\"%s\",\"shortDescription\":{\"text\":\"%s\"}}"
      (json_escape code) (json_escape pass)
  in
  let result d =
    Printf.sprintf
      "{\"ruleId\":\"%s\",\"level\":\"%s\",\"message\":{\"text\":\"%s\"},\
       \"locations\":[{\"physicalLocation\":{\"artifactLocation\":\
       {\"uri\":\"%s\"}},\"logicalLocations\":[{\"fullyQualifiedName\":\
       \"%s\"}]}]}"
      (json_escape d.code) (sarif_level d.severity) (json_escape d.message)
      (json_escape uri) (json_escape d.path)
  in
  Printf.sprintf
    "{\"version\":\"2.1.0\",\"$schema\":\
     \"https://json.schemastore.org/sarif-2.1.0.json\",\"runs\":[{\"tool\":\
     {\"driver\":{\"name\":\"flexnet-lint\",\"informationUri\":\
     \"https://github.com/flexnet/flexnet\",\"rules\":[%s]}},\"results\":\
     [%s]}]}"
    (String.concat "," (List.map rule rules))
    (String.concat "," (List.map result ds))

let max_severity = function
  | [] -> None
  | d :: ds ->
    Some
      (List.fold_left
         (fun acc x -> if compare_severity x.severity acc > 0 then x.severity else acc)
         d.severity ds)

let at_least sev ds =
  List.filter (fun d -> compare_severity d.severity sev >= 0) ds

let errors ds = at_least Error ds

let count sev ds = List.length (List.filter (fun d -> d.severity = sev) ds)

let pp_summary ppf ds =
  Fmt.pf ppf "%d error%s, %d warning%s, %d info"
    (count Error ds)
    (if count Error ds = 1 then "" else "s")
    (count Warning ds)
    (if count Warning ds = 1 then "" else "s")
    (count Info ds)
