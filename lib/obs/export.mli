(** Exporters: Chrome trace-event JSON (loadable in chrome://tracing and
    Perfetto) and Prometheus text metrics from {!Sketch}-backed timers. *)

(** Escape a string for inclusion inside a JSON string literal. *)
val json_escape : string -> string

(** Render spans as Chrome trace-event JSON ({v {"traceEvents":[...]} v}):
    one "B"/"E" pair per span with the required name/cat/ph/ts/pid/tid
    fields, span id, parent id and attributes in [args], plus process-name
    metadata naming each category's track. Begin/end pairs are emitted
    depth-first per domain, so they are balanced and correctly nested in
    file order. Timestamps are microseconds relative to the earliest span.
    A positive [dropped] (spans lost at the {!Trace.capacity} cap, see
    {!Trace.dropped}) is recorded in an [otherData] object. *)
val chrome_trace : ?dropped:int -> Trace.event list -> string

val write_chrome_trace : ?dropped:int -> string -> Trace.event list -> unit

(** Sanitize a user-derived metric name for the Prometheus exposition
    format: illegal characters map to [_], and a leading digit gains a [_]
    prefix so the result always matches [[a-zA-Z_][a-zA-Z0-9_]*]. *)
val metric_name : string -> string -> string

(** Escape a [# HELP] text per the exposition format: backslash and
    newline become [\\] and [\n]. *)
val help_escape : string -> string

(** Prometheus text exposition, the one renderer for every metric group.
    Counters become [<prefix>_<name>_total]. Each sketch-backed timer
    [<prefix>_<name>_seconds] is a [# TYPE ... histogram] with cumulative
    [_bucket{le="..."}] lines over the sketch's log-bucket upper bounds
    (plus the mandatory [le="+Inf"]), [_sum] and [_count]. Every metric
    carries [# HELP] and [# TYPE] lines; names are sanitized with
    {!metric_name}. Bucket counts come straight from
    {!Sketch.buckets}, so exposition cost and size are O(buckets), not
    O(observations). Each timer also exposes two sketch-health gauges:
    [<prefix>_<name>_sketch_buckets] (live occupied-bucket count) and
    [<prefix>_<name>_sketch_collapsed] (1 once the [max_buckets] cap has
    collapsed low buckets, i.e. low quantiles may exceed the error
    bound). *)
val prometheus :
  ?prefix:string ->
  counters:(string * int) list ->
  sketches:(string * Sketch.t) list ->
  unit ->
  string
