(** Exporters: JSONL traces, Prometheus-style text metrics, and human
    tables. All outputs are deterministically ordered (metrics by
    (name, labels), spans by id) and use fixed float formatting, so a
    seeded run exports byte-identical text. *)

(** Escape a string for a JSON string literal: quote, backslash, [\n]
    and [\t] get their short escapes, other control characters
    [\u00XX]. *)
val json_escape : string -> string

(** Prometheus text exposition: one [# TYPE] line per metric family,
    names prefixed with [flexnet_] and sanitized ('.', '-' → '_');
    histograms export [_count], [_sum], and [{quantile="..."}] summary
    lines. *)
val prometheus : Metrics.t -> string

(** Aligned [metric | labels | value] table. *)
val metrics_table : Metrics.t -> string

(** One JSON object per span, in id order:
    [{"id":..,"parent":..,"name":..,"start":..,"end":..,"attrs":{..}}].
    Open spans export ["end":null]. *)
val trace_jsonl : Trace.t -> string

(** Aligned human view of the trace: id, parent, name, start, duration,
    attributes. *)
val trace_table : Trace.t -> string
