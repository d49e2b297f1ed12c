(* The end-to-end Barracuda pipeline (Figure 1): OCTOPI variants -> merged
   TCR programs -> decision-algorithm search space -> SURF.

   A [candidate] fixes one OCTOPI variant per statement and one search-space
   point per generated kernel; the SURF pool is the full cross-product space
   when small enough, otherwise a uniform sample of it (Algorithm 2 takes
   an explicit configuration pool as input). *)

let log_src = Logs.Src.create "barracuda.tuner" ~doc:"Autotuning pipeline"

module Log = (val Logs.src_log log_src)

type benchmark = {
  label : string;
  statements : Octopi.Contraction.t list;
}

type candidate = {
  variant_ids : int list;  (* chosen OCTOPI variant per statement *)
  ir : Tcr.Ir.t;
  points : Tcr.Space.point list;
  features : Surf.Feature.features;
}

type result = {
  benchmark : benchmark;
  arch : Gpusim.Arch.t;
  best : candidate;
  best_report : Gpusim.Gpu.report;
  time_per_eval_s : float;   (* amortized single evaluation, with transfer *)
  gflops : float;
  search_seconds : float;    (* modeled empirical search cost *)
  evaluations : int;
  pool_size : int;
  total_space : int;         (* exact size of the full cross-product space *)
  variant_count : int;
  convergence : float list;
  iterations : Obs.Search_log.iteration list;  (* SURF per-batch telemetry *)
  importances : (string * float) list;
  (* named-parameter split-gain importances of the final surrogate,
     descending; [] when no surrogate was fit *)
  explain : candidate Surf.Search.explain option;  (* surrogate post-mortem *)
  gate : Check.Verify.gate_stats;
  (* what the static pre-evaluation gate saw; empty when it was off *)
  semantic : Check.Semantic.verdict option;
  (* translation validation of the winner; None when the semantic gate was
     off or the DSL oracle's cost exceeded Check.Semantic.gate_budget *)
}

let benchmark_of_dsl ~label src =
  let program = Octopi.Parse.program src in
  { label; statements = Octopi.Contraction.of_program program }

(* One merged IR + its per-op spaces for a joint variant choice. *)
type variant_choice = {
  ids : int list;
  v_ir : Tcr.Ir.t;
  spaces : Tcr.Space.program_space;
}

let variant_choices (b : benchmark) =
  let per_stmt =
    List.map (fun c -> (c, (Octopi.Variants.of_contraction c).variants)) b.statements
  in
  let rec cross = function
    | [] -> [ [] ]
    | (c, vs) :: rest ->
      let tails = cross rest in
      List.concat_map (fun v -> List.map (fun tl -> (c, v) :: tl) tails) vs
  in
  List.map
    (fun choice ->
      let ids = List.map (fun (_, (v : Octopi.Variants.variant)) -> v.id) choice in
      let v_ir = Combine.merge ~label:b.label choice in
      { ids; v_ir; spaces = Tcr.Space.of_ir v_ir })
    (cross per_stmt)

(* Saturating sum: network-lowered programs reach program_counts of
   max_int, and a wrapped total would report a nonsense space size. *)
let total_space choices =
  List.fold_left
    (fun acc c ->
      let n = Tcr.Space.program_count c.spaces in
      if acc > max_int - n then max_int else acc + n)
    0 choices

let features_of (c : variant_choice) points =
  ("variant", Surf.Feature.Cat (String.concat "." (List.map string_of_int c.ids)))
  :: List.concat
       (List.mapi
          (fun i (space, point) ->
            List.map
              (fun (name, v) ->
                let v' =
                  match v with
                  | Tcr.Space.Cat s -> Surf.Feature.Cat s
                  | Tcr.Space.Num x -> Surf.Feature.Num x
                in
                (Printf.sprintf "op%d_%s" (i + 1) name, v'))
              (Tcr.Space.features space point))
          (List.combine c.spaces.op_spaces points))

let candidate_of (c : variant_choice) points =
  { variant_ids = c.ids; ir = c.v_ir; points; features = features_of c points }

(* Build the SURF pool: enumerate a variant's space when it is small,
   otherwise sample without replacement via rejection on the point key.
   An optional pruning [policy] (see {!Tcr.Prune}) filters points first;
   an optional [gate] (the static verifier) runs after it - pruned points
   are never gate-checked, so the gate's counters report only points that
   would otherwise have been measured. *)
let build_pool ?(pool_per_variant = 600) ?prune ?gate rng choices =
  let point_ok space p =
    (match prune with None -> true | Some policy -> Tcr.Prune.point_ok policy space p)
    && match gate with None -> true | Some g -> g space p
  in
  let pool = ref [] in
  List.iter
    (fun c ->
      let count = Tcr.Space.program_count c.spaces in
      if count <= pool_per_variant then begin
        let per_op =
          List.map
            (fun space -> List.filter (point_ok space) (Tcr.Space.enumerate space))
            c.spaces.op_spaces
        in
        let rec cross = function
          | [] -> [ [] ]
          | pts :: rest ->
            let tails = cross rest in
            List.concat_map (fun p -> List.map (fun tl -> p :: tl) tails) pts
        in
        List.iter (fun points -> pool := candidate_of c points :: !pool) (cross per_op)
      end
      else begin
        let seen = Hashtbl.create pool_per_variant in
        let attempts = ref 0 in
        while Hashtbl.length seen < pool_per_variant && !attempts < pool_per_variant * 40 do
          incr attempts;
          let points = List.map (Tcr.Space.sample rng) c.spaces.op_spaces in
          if List.for_all2 point_ok c.spaces.op_spaces points then begin
            let k = String.concat "|" (List.map Tcr.Space.point_key points) in
            if not (Hashtbl.mem seen k) then begin
              Hashtbl.add seen k ();
              pool := candidate_of c points :: !pool
            end
          end
        done
      end)
    choices;
  Array.of_list !pool

type strategy = Surf_search of Surf.Search.config | Random_search | Exhaustive

(* [journal_key], [journal_seed] and [journal_net] only annotate the
   flight-recorder entry (canonical problem key, RNG seed, contraction-order
   provenance); they never influence the tune. *)
let tune ?(strategy = Surf_search Surf.Search.default_config) ?(reps = 100)
    ?(pool_per_variant = 600) ?prune ?(static_gate = true) ?(semantic_gate = true)
    ?batch_map ?(journal_key = "") ?(journal_seed = -1) ?journal_net ~rng ~arch
    (b : benchmark) =
  Obs.Trace.with_span ~cat:"autotune"
    ~attrs:(fun () -> [ ("label", b.label); ("arch", arch.Gpusim.Arch.name) ])
    "tune"
  @@ fun tune_span ->
  let choices =
    Obs.Trace.with_span ~cat:"autotune" "tune.variants" (fun _ -> variant_choices b)
  in
  (* The static pre-evaluation gate: every candidate point is verified
     (errors only - no lint computation) before it can enter the pool, so
     an illegal recipe is never lowered into a measurement. The closure
     counts what it saw; the counts land in the result and the journal. *)
  let gate_checked = ref 0 and gate_rejected = ref 0 in
  let gate_codes : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let gate =
    if not static_gate then None
    else
      Some
        (fun space p ->
          incr gate_checked;
          let diags = Check.Verify.space_point ~lints:false ~arch space p in
          let bad = Check.Diag.has_errors diags in
          if bad then begin
            incr gate_rejected;
            List.iter
              (fun (code, n) ->
                Hashtbl.replace gate_codes code
                  (n + Option.value ~default:0 (Hashtbl.find_opt gate_codes code)))
              (Check.Diag.by_code (Check.Diag.errors diags))
          end;
          not bad)
  in
  let pool =
    Obs.Trace.with_span ~cat:"autotune"
      ~attrs:(fun () -> [ ("per_variant", string_of_int pool_per_variant) ])
      "tune.pool"
      (fun span ->
        let pool = build_pool ~pool_per_variant ?prune ?gate rng choices in
        (* a policy can empty the pool of a tiny computation (e.g. a 10x10
           contraction cannot reach 32 threads per block): fall back to the
           full space rather than failing *)
        let pool =
          if Array.length pool = 0 && prune <> None then
            build_pool ~pool_per_variant ?gate rng choices
          else pool
        in
        (* the decision algorithm only proposes legal points, so an empty
           gated pool means every candidate is broken - surface whatever the
           full space yields rather than dying with nothing to search *)
        let pool =
          if Array.length pool = 0 && gate <> None then begin
            Log.warn (fun m ->
                m "%s: static gate rejected all %d candidate points; tuning ungated"
                  b.label !gate_checked);
            build_pool ~pool_per_variant rng choices
          end
          else pool
        in
        Obs.Trace.add_attrs span [ ("pool", string_of_int (Array.length pool)) ];
        pool)
  in
  let gate_stats () =
    {
      Check.Verify.checked = !gate_checked;
      rejected = !gate_rejected;
      by_code =
        Hashtbl.fold (fun c n acc -> (c, n) :: acc) gate_codes [] |> List.sort compare;
    }
  in
  Log.info (fun m ->
      m "%s on %s: %d variants, %d-candidate pool (full space %d)" b.label arch.Gpusim.Arch.name
        (List.length choices) (Array.length pool) (total_space choices));
  let evaluator = Evaluator.create ~reps arch in
  let eval (c : candidate) = Evaluator.objective evaluator c.ir c.points in
  (* one feature schema per tune, shared by the SURF encoder and the
     named importances *)
  let schema =
    lazy (Surf.Feature.make_schema (Array.to_list (Array.map (fun c -> c.features) pool)))
  in
  let search_result =
    Obs.Trace.with_span ~cat:"autotune" "tune.search" @@ fun _ ->
    match strategy with
    | Exhaustive -> Surf.Search.exhaustive ~pool ~eval
    | Random_search ->
      Surf.Search.random_search rng ~pool ~eval
        ~max_evals:Surf.Search.default_config.max_evals
    | Surf_search cfg ->
      let encode c = Surf.Feature.encode (Lazy.force schema) c.features in
      let eval_batch =
        Option.map
          (fun map cs ->
            Evaluator.objective_batch evaluator ~map
              (List.map (fun (c : candidate) -> (c.ir, c.points)) cs))
          batch_map
      in
      Surf.Search.surf ~config:cfg ?eval_batch rng ~pool ~encode ~eval
  in
  let best = search_result.best.config in
  let best_report =
    Obs.Trace.with_span ~cat:"autotune" "tune.measure_best" (fun _ ->
        Evaluator.measure evaluator best.ir best.points)
  in
  Obs.Trace.add_attrs tune_span
    [
      ("evaluations", string_of_int search_result.evaluations);
      ("best_objective", Printf.sprintf "%.6g" search_result.best.objective);
    ];
  Log.info (fun m ->
      m "%s on %s: best %.3g s after %d evaluations (variant %s)" b.label arch.Gpusim.Arch.name
        best_report.Gpusim.Gpu.kernel_time_s search_result.evaluations
        (String.concat "." (List.map string_of_int best.variant_ids)));
  (* Translation validation of the winner, after the search settled: runs
     with its own fixed seed and draws nothing from the tuner RNG, so a
     fixed-seed tune is bit-identical with the semantic gate on or off.
     Skipped (None) above the DSL oracle's cost budget - the naive einsum
     is the spec, so its cost is irreducible. *)
  let semantic =
    if not semantic_gate then None
    else if Check.Semantic.cost b.statements > Check.Semantic.gate_budget then begin
      Log.debug (fun m ->
          m "%s: semantic gate skipped (dsl oracle cost %d exceeds budget %d)"
            b.label (Check.Semantic.cost b.statements) Check.Semantic.gate_budget);
      None
    end
    else
      Obs.Trace.with_span ~cat:"autotune" "tune.semantic" (fun span ->
          let v =
            Check.Semantic.validate ~label:b.label b.statements
              ~variant_ids:best.variant_ids ~ir:best.ir ~points:best.points
          in
          Obs.Trace.add_attrs span
            [ ("equivalent", string_of_bool v.Check.Semantic.equivalent) ];
          if not v.Check.Semantic.equivalent then
            Log.err (fun m ->
                m "%s: winner FAILED translation validation at the %s stage:\n%s"
                  b.label
                  (Option.value ~default:"?" v.Check.Semantic.failed_stage)
                  (Check.Diag.render_report v.Check.Semantic.diags));
          Some v)
  in
  let time_per_eval_s = Gpusim.Gpu.amortized_time best_report ~reps in
  let importances =
    match search_result.explain with
    | None -> []
    | Some ex -> Surf.Explain.named_importances (Lazy.force schema) ex.importance
  in
  (* Flight recorder: one journal entry per tune, with the full five-stage
     lineage of every evaluated variant. Guarded by the sink flag, and pure
     string/hash work when on, so a fixed-seed tune is bit-identical with
     journaling on or off. *)
  if Obs.Journal.enabled () then begin
    let dsl = Provenance.dsl_of_statements b.statements in
    let lineage_of (c : candidate) =
      Provenance.lineage ~dsl ~variant_ids:c.variant_ids ~ir:c.ir ~points:c.points
    in
    let label_of (c : candidate) =
      Provenance.label ~variant_ids:c.variant_ids ~points:c.points
    in
    (* surrogate predictions per evaluated candidate; pool elements are
       shared, so physical equality identifies them *)
    let predicted_of c =
      Option.bind search_result.explain (fun ex ->
          List.find_map
            (fun (c', p, _) -> if c' == c then Some p else None)
            ex.residuals)
    in
    let variant_of (e : candidate Surf.Search.evaluation) =
      {
        Obs.Journal.label = label_of e.config;
        lineage = lineage_of e.config;
        predicted = predicted_of e.config;
        measured = e.objective;
      }
    in
    let max_evals, batch_size =
      match strategy with
      | Surf_search cfg -> (cfg.max_evals, cfg.batch_size)
      | Random_search -> (Surf.Search.default_config.max_evals, 1)
      | Exhaustive -> (search_result.pool_size, search_result.pool_size)
    in
    let entry =
      {
        Obs.Journal.run_id = "";
        timestamp = 0.0;
        key = journal_key;
        label = b.label;
        arch = Gpusim.Arch.fingerprint arch;
        seed = journal_seed;
        dsl;
        max_evals;
        batch_size;
        pool_per_variant;
        reps;
        pool_size = search_result.pool_size;
        evaluations = search_result.evaluations;
        gate_checked = !gate_checked;
        gate_rejected = !gate_rejected;
        gate_diags = (gate_stats ()).by_code;
        network = journal_net;
        semantic_ok =
          Option.map (fun (v : Check.Semantic.verdict) -> v.equivalent) semantic;
        iterations = search_result.iterations;
        variants = List.map variant_of search_result.history;
        winner = variant_of search_result.best;
        importances;
        residual_r2 =
          Option.bind search_result.explain (fun ex ->
              Surf.Explain.residual_r2 ex.residuals);
        rivals =
          (match search_result.explain with
          | None -> []
          | Some ex ->
            List.map
              (fun (c, p, s) ->
                {
                  Obs.Journal.rival_label = label_of c;
                  rival_lineage = lineage_of c;
                  rival_predicted = p;
                  rival_std = s;
                })
              ex.rivals);
      }
    in
    ignore (Obs.Journal.record entry)
  end;
  {
    benchmark = b;
    arch;
    best;
    best_report;
    time_per_eval_s;
    gflops = Gpusim.Gpu.gflops best_report ~reps;
    search_seconds = evaluator.search_seconds;
    evaluations = search_result.evaluations;
    pool_size = search_result.pool_size;
    total_space = total_space choices;
    variant_count = List.length choices;
    convergence = Surf.Search.convergence_curve search_result;
    iterations = search_result.iterations;
    importances;
    explain = search_result.explain;
    gate = gate_stats ();
    semantic;
  }

(* Emit the tuned CUDA for a result. *)
let emit_cuda result = Codegen.Cuda.emit_program result.best.ir result.best.points

(* Whether the winner is proven to compute its contraction: the semantic
   gate's verdict, or a fresh translation validation when the gate was off
   or skipped. *)
let validate result =
  let v =
    match result.semantic with
    | Some v -> v
    | None ->
      Check.Semantic.validate ~label:result.benchmark.label result.benchmark.statements
        ~variant_ids:result.best.variant_ids ~ir:result.best.ir ~points:result.best.points
  in
  v.equivalent

(* ------------------------------------------------------------------ *)
(* CPU baselines: the sequential (and OpenMP) Haswell implementations also
   benefit from strength reduction, so they use the variant that minimizes
   CPU time. *)

let best_sequential_time (b : benchmark) =
  let choices = variant_choices b in
  List.fold_left
    (fun acc c -> min acc (Cpusim.Haswell.sequential_time c.v_ir))
    infinity choices

let best_openmp_time ?cores (b : benchmark) =
  let choices = variant_choices b in
  List.fold_left
    (fun acc c -> min acc (Cpusim.Haswell.openmp_time ?cores c.v_ir))
    infinity choices

(* Flops of the cheapest variant: the flop count a CPU baseline performs. *)
let min_variant_flops (b : benchmark) =
  let choices = variant_choices b in
  List.fold_left (fun acc c -> min acc (Tcr.Ir.flops c.v_ir)) max_int choices
