(** SURF convergence telemetry: one record per search iteration, built by
    {!Surf.Search.surf} and carried on its result, so every tune exposes how
    the search converged - best-so-far objective, pool coverage, and the
    surrogate's predictive quality ({!Util.Stats.r_squared} of the forest's
    predictions against the batch's measured objectives). *)

type iteration = {
  iter : int;  (** 0 = the initial random batch *)
  batch : int;  (** configurations evaluated this iteration *)
  evaluations : int;  (** cumulative, after this iteration *)
  pool_size : int;
  best_so_far : float;
  batch_best : float;
  batch_mean : float;
  r2 : float option;  (** surrogate quality; [None] for the random batch *)
  pred_std : float option;
      (** mean ensemble uncertainty ({!Surf.Forest.predict_std}) over the
          proposed batch; [None] for the initial random batch *)
}

(** Fraction of the pool evaluated so far (0 for an empty pool). *)
val coverage : iteration -> float

(** Whether the best-so-far sequence is non-increasing (it must be). *)
val monotone : iteration list -> bool

(** Human-readable convergence report. *)
val render : label:string -> iteration list -> string

(** Trace-span attributes for one iteration (best-so-far, R-squared, ...). *)
val span_attrs : iteration -> (string * string) list
