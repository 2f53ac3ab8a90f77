(** Exporters over the registry and tracer. Ordering and float
    formatting are fixed so exports are byte-stable for a seeded run. *)

let fnum v =
  (* %.9g is compact, lossless enough for virtual-clock times, and
     locale-independent *)
  Printf.sprintf "%.9g" v

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* -- Prometheus --------------------------------------------------------- *)

let prom_name name =
  let b = Buffer.create (String.length name + 8) in
  Buffer.add_string b "flexnet_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let prom_labels labels =
  match labels with
  | [] -> ""
  | _ ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (json_escape v)) labels)
    ^ "}"

let prometheus metrics =
  let b = Buffer.create 1024 in
  let typed = Hashtbl.create 16 in
  List.iter
    (fun (name, labels, value) ->
      let pname = prom_name name in
      let emit_type kind =
        if not (Hashtbl.mem typed pname) then begin
          Hashtbl.replace typed pname ();
          Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" pname kind)
        end
      in
      match value with
      | Metrics.Counter v ->
        emit_type "counter";
        Buffer.add_string b
          (Printf.sprintf "%s%s %d\n" pname (prom_labels labels) v)
      | Metrics.Gauge v ->
        emit_type "gauge";
        Buffer.add_string b
          (Printf.sprintf "%s%s %s\n" pname (prom_labels labels) (fnum v))
      | Metrics.Summary { count; sum; q50; q90; q99 } ->
        emit_type "summary";
        let with_q q = labels @ [ ("quantile", q) ] in
        Buffer.add_string b
          (Printf.sprintf "%s%s %s\n" pname (prom_labels (with_q "0.5")) (fnum q50));
        Buffer.add_string b
          (Printf.sprintf "%s%s %s\n" pname (prom_labels (with_q "0.9")) (fnum q90));
        Buffer.add_string b
          (Printf.sprintf "%s%s %s\n" pname (prom_labels (with_q "0.99")) (fnum q99));
        Buffer.add_string b
          (Printf.sprintf "%s_count%s %d\n" pname (prom_labels labels) count);
        Buffer.add_string b
          (Printf.sprintf "%s_sum%s %s\n" pname (prom_labels labels) (fnum sum)))
    (Metrics.to_list metrics);
  Buffer.contents b

(* -- Tables ------------------------------------------------------------- *)

let table rows =
  match rows with
  | [] -> ""
  | header :: _ ->
    let cols = List.length header in
    let widths = Array.make cols 0 in
    List.iter
      (List.iteri (fun i cell ->
           if i < cols then widths.(i) <- max widths.(i) (String.length cell)))
      rows;
    let b = Buffer.create 1024 in
    List.iter
      (fun row ->
        List.iteri
          (fun i cell ->
            Buffer.add_string b cell;
            if i < cols - 1 then
              Buffer.add_string b
                (String.make (widths.(i) - String.length cell + 2) ' '))
          row;
        Buffer.add_char b '\n')
      rows;
    Buffer.contents b

let labels_to_string labels =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

let metrics_table metrics =
  let rows =
    [ "metric"; "labels"; "value" ]
    :: List.map
         (fun (name, labels, value) ->
           let v =
             match value with
             | Metrics.Counter c -> string_of_int c
             | Metrics.Gauge g -> fnum g
             | Metrics.Summary { count; sum; q50; q90; q99 } ->
               Printf.sprintf "n=%d sum=%s p50=%s p90=%s p99=%s" count
                 (fnum sum) (fnum q50) (fnum q90) (fnum q99)
           in
           [ name; labels_to_string labels; v ])
         (Metrics.to_list metrics)
  in
  table rows

(* -- Traces ------------------------------------------------------------- *)

let attr_json (k, v) =
  Printf.sprintf "\"%s\":%s" (json_escape k)
    (match v with
     | Trace.S s -> "\"" ^ json_escape s ^ "\""
     | Trace.I i -> string_of_int i
     | Trace.F f -> fnum f
     | Trace.B b -> if b then "true" else "false")

let span_json (s : Trace.span) =
  Printf.sprintf
    "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"start\":%s,\"end\":%s,\"attrs\":{%s}}"
    s.Trace.id s.Trace.parent_id
    (json_escape s.Trace.span_name)
    (fnum s.Trace.start_time)
    (match s.Trace.end_time with Some e -> fnum e | None -> "null")
    (String.concat "," (List.map attr_json s.Trace.attrs))

let trace_jsonl trace =
  String.concat "" (List.map (fun s -> span_json s ^ "\n") (Trace.spans trace))

let attr_to_string (k, v) =
  k ^ "="
  ^ (match v with
     | Trace.S s -> s
     | Trace.I i -> string_of_int i
     | Trace.F f -> fnum f
     | Trace.B b -> string_of_bool b)

let trace_table trace =
  let rows =
    [ "id"; "parent"; "span"; "start(s)"; "dur(ms)"; "attrs" ]
    :: List.map
         (fun (s : Trace.span) ->
           [ string_of_int s.Trace.id;
             (if s.Trace.parent_id = 0 then "-" else string_of_int s.Trace.parent_id);
             s.Trace.span_name;
             Printf.sprintf "%.6f" s.Trace.start_time;
             (match s.Trace.end_time with
              | Some _ -> Printf.sprintf "%.3f" (1000. *. Trace.duration s)
              | None -> "open");
             String.concat " " (List.map attr_to_string s.Trace.attrs) ])
         (Trace.spans trace)
  in
  table rows
