(** Service metrics: named counters and wall-clock timers with decade
    latency histograms. All operations are domain-safe.

    A timer is one {!Obs.Sketch} plus its decade counters. The sketch
    keeps the exact count, total, min, max and second moment of every
    observation, and quantiles within relative error {!sketch_alpha}; no
    raw sample is retained, so a timer's memory is bounded no matter how
    long the service runs. *)

type t

(** Relative accuracy of the per-timer quantile sketches (0.01). *)
val sketch_alpha : float

val create : unit -> t

val incr : ?by:int -> t -> string -> unit

(** Record one duration, in seconds, under a timer name. *)
val observe : t -> string -> float -> unit

(** Current value of a counter (0 if never incremented). *)
val counter : t -> string -> int

(** All counters, sorted by name. *)
val counters : t -> (string * int) list

(** Count, total, min, max, mean and stddev are exact over every
    observation (mean and stddev up to rounding); the quantiles are sketch
    estimates within the {!Obs.Sketch} error bound. *)
type timer_summary = {
  count : int;
  total_s : float;
  mean_s : float;
  median_s : float;
  p90_s : float;
  p99_s : float;
  min_s : float;
  max_s : float;
  stddev_s : float;  (** population, like {!Util.Stats.stddev} *)
}

val summaries : t -> (string * timer_summary) list

(** Sketch-estimated quantile of a timer, [p] in [0, 100]; [nan] for an
    unknown timer. *)
val quantile : t -> string -> float -> float

(** Independent copies of the per-timer sketches, sorted by name - the
    source for the native-histogram exposition of
    {!Engine.prometheus_report}. *)
val sketches : t -> (string * Obs.Sketch.t) list

(** Decade buckets from 100us to 10s: [("<100us", n); ...; (">=10s", n)].
    Cache hits land in the microsecond buckets, cold tunes in the second
    buckets. *)
val histogram : t -> string -> (string * int) list

(** Human-readable report: counters, timer summaries, histograms. *)
val render : t -> string
