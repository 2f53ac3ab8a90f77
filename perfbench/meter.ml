(* Measurement kit shared by the three workloads: the one wall clock,
   raw-sample statistics, allocation and heap readings, and the
   in-memory span tracer of the traced run.

   Every wall timing in the benchmark goes through [now_ns] (the
   monotonic clock bechamel ships); quantiles are always taken from raw
   samples, never from Obs histograms, whose log buckets are ~19%
   wide. *)

let now_ns () = Monotonic_clock.now ()
let ns_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0)
let s_since t0 = ns_since t0 *. 1e-9

(* Minor words allocated so far by the calling domain, exact and
   without allocating. Every workload runs on one domain (fabric's
   one-domain [Shard.run] spawns none), so this is the whole program's
   allocation. *)
let minor_words () = Gc.minor_words ()

(* Read after a run's first window, so the figure does not grow with the
   number of windows a faster program fits in the run. *)
let heap_peak_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1e6

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

(* -- Raw samples ------------------------------------------------------ *)

module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len
  let to_list t = Array.to_list (Array.sub t.data 0 t.len)
end

(* Nearest-rank quantile of raw values; 0 on no samples. *)
let quantile values q =
  match values with
  | [] -> 0.
  | _ ->
    let a = Array.of_list values in
    Array.sort Float.compare a;
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* Throughput is taken per window — a trace replay, a repetition — and a
   run reports the median over its windows. Latency percentiles are
   taken over every raw sample of the run, so a stall in any window
   counts. *)
let median values = quantile values 0.5

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* -- Span tracer ------------------------------------------------------

   Spans are recorded only by the benchmark's own code, around its
   calls into each layer's public functions. A [replayed] span times a
   public pure function (certify, plan, policy compile) called beside
   the outer operation on the same input, because the real call is
   reachable only inside another layer. *)

module Trace = struct
  type span = {
    sp_id : int;
    sp_parent : int; (* 0 = root *)
    sp_name : string;
    sp_run : int; (* repetition within this process *)
    sp_replayed : bool;
    sp_start : int64;
    mutable sp_end : int64;
    mutable sp_counters : (string * float) list;
        (* Obs counters read at the span's closing boundary *)
  }

  type t = {
    mutable spans : span list; (* newest first *)
    mutable next_id : int;
    mutable stack : int list; (* open span ids *)
    mutable run : int;
  }

  let create () = { spans = []; next_id = 1; stack = []; run = 0 }
  let set_run t r = t.run <- r

  let with_span ?(replayed = false) ?(counters = fun () -> []) t name f =
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> 0 in
    let sp =
      { sp_id = id; sp_parent = parent; sp_name = name; sp_run = t.run;
        sp_replayed = replayed; sp_start = now_ns (); sp_end = 0L;
        sp_counters = [] }
    in
    t.spans <- sp :: t.spans;
    t.stack <- id :: t.stack;
    let finish () =
      sp.sp_end <- now_ns ();
      t.stack <- List.tl t.stack;
      sp.sp_counters <- counters ()
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e

  let duration sp = Int64.to_float (Int64.sub sp.sp_end sp.sp_start)

  (* Self time: a span's duration minus the part its children cover
     (children of one parent run one after another). *)
  let self_times t =
    let child_ns = Hashtbl.create 1024 in
    List.iter
      (fun sp ->
        if sp.sp_parent <> 0 then
          Hashtbl.replace child_ns sp.sp_parent
            (duration sp
            +. Option.value ~default:0. (Hashtbl.find_opt child_ns sp.sp_parent)))
      t.spans;
    List.rev_map
      (fun sp ->
        ( sp,
          duration sp
          -. Option.value ~default:0. (Hashtbl.find_opt child_ns sp.sp_id) ))
      t.spans

  (* Total self ns and span count per name. *)
  let self_by_name t =
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun (sp, self) ->
        let s, n =
          Option.value ~default:(0., 0) (Hashtbl.find_opt tbl sp.sp_name)
        in
        Hashtbl.replace tbl sp.sp_name (s +. self, n + 1))
      (self_times t);
    tbl

  let count t = List.length t.spans

  let json_string s =
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b

  (* One JSON object per span, in start order. *)
  let write_jsonl t ~run_id path =
    let oc = open_out path in
    List.iter
      (fun (sp, self) ->
        Printf.fprintf oc
          "{\"run_id\":%s,\"run\":%d,\"id\":%d,\"parent\":%d,\"name\":%s,\
           \"start_ns\":%Ld,\"end_ns\":%Ld,\"self_ns\":%.0f,\"replayed\":%b"
          (json_string run_id) sp.sp_run sp.sp_id sp.sp_parent
          (json_string sp.sp_name) sp.sp_start sp.sp_end self sp.sp_replayed;
        if sp.sp_counters <> [] then begin
          output_string oc ",\"counters\":{";
          List.iteri
            (fun i (k, v) ->
              Printf.fprintf oc "%s%s:%.17g"
                (if i = 0 then "" else ",")
                (json_string k) v)
            sp.sp_counters;
          output_string oc "}"
        end;
        output_string oc "}\n")
      (self_times t);
    close_out oc
end

(* -- What a workload receives and hands back --------------------------- *)

type ctx = {
  seed : int;
  seconds : float; (* wall time to measure for *)
  tracer : Trace.t option; (* [Some] in the traced run *)
  smoke : bool; (* tiny sizes, for the benchmark's own smoke test *)
  corrupt : bool; (* smoke only: one expected verdict is deliberately wrong *)
}

let traced ctx = ctx.tracer <> None

(* [with_span] when tracing, a plain call otherwise. *)
let span ?replayed ?counters ctx name f =
  match ctx.tracer with
  | None -> f ()
  | Some tr -> Trace.with_span ?replayed ?counters tr name f


type result = {
  attempted : int;
  failed : int;
  consistent : bool; (* every repetition produced the same digest *)
  e2e : (string * float) list; (* end-to-end metric values *)
  layers : (string * float) list; (* per-layer values (traced run) *)
  digest : string; (* hex digest of the seeded, deterministic outputs *)
  facts : (string * string) list; (* environment facts and exact counts *)
}

(* Run [rep] until [seconds] of wall time are spent, at least once. *)
let repeat_for ~seconds rep =
  let t0 = now_ns () in
  let rec go i acc =
    let acc = rep i :: acc in
    if s_since t0 >= seconds then List.rev acc else go (i + 1) acc
  in
  go 0 []
