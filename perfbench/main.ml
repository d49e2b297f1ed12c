(* The repository benchmark: three workloads driven through the public API
   of Service.Engine and Autotune.Tuner, on one OCaml domain, by a closed
   loop of one client (the next batch is sent when the previous one has
   been answered). README.md says why each workload exists and which layer
   should move which metric.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe --self-test --workload W --seed N

   The last line of standard output is one JSON object: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1. A traced
   run makes every timed call twice: once for real, untraced, and once as
   a replay of staged public calls wrapped in the benchmark's own spans
   (Obs.Trace stays off). Each replay must reproduce the real call's
   winner. *)

module Engine = Service.Engine
module Canonical = Service.Canonical
module Cache = Service.Tuning_cache
module Tuner = Autotune.Tuner

let arch = Gpusim.Arch.k20

(* NWChem trip count: small enough that 27 cold tunes fit one run, large
   enough that translation validation dominates them. *)
let nwchem_n = 6
let serve_batch = 16
let serve_min_batches = 1000
let zipf_s = 1.1

(* Smaller than the 27 serve keys, so tail keys are promoted from disk and
   evict others. *)
let serve_capacity = 12

(* Batches between re-draws of the popularity order. Hot keys differ in
   restore cost, so one fixed order per run would make throughput depend
   on which kernels the seed made hot; a run averages over many orders. *)
let serve_rank_period = 100

(* Every cold tune uses the engine's default seed. SURF's winner under the
   paper's 100-evaluation budget depends on the tuning seed: over five
   seeds the Table II geomean ranged from 11.1 to 25.4 GFLOPS. A run
   seed that changed the tuning seed would measure search luck, not the
   code. *)
let tuning_seed = Engine.default_config.seed
let setup_repeats = 3

(* The major GC's space overhead for the whole run (OCaml's default is
   120). At the default the top of the heap is mostly slack whose size
   depends on where each major cycle ends: the same 27 NWChem tunes
   peaked anywhere from 24.9 to 31.9 MB depending on their order. At 20
   the heap stays within about 20% of the live data, and the peak tracks
   what the program keeps alive (7.82-7.95 MB over the same orders), at
   about 10-25% more tuning time. *)
let gc_space_overhead = 20

type workload = Cold_nwchem | Cold_table2 | Serve_zipf

let workloads =
  [ ("cold-nwchem", Cold_nwchem); ("cold-table2", Cold_table2); ("serve-zipf", Serve_zipf) ]

(* ------------------------------------------------------------------ *)
(* Clocks, allocation, spans *)

let now = Unix.gettimeofday

(* Words allocated on the minor heap. Exact, so a span's count repeats bit
   for bit; Gc.allocated_bytes does not, because OCaml 5 accounts
   promotion lazily. Blocks over Max_young_wosize (256 words), allocated
   directly on the major heap, are not counted. *)
let words () = int_of_float (Gc.minor_words ())

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Machine-speed probe. The machine this benchmark was tuned on runs the
   same code up to 30% faster or slower for stretches of seconds to
   minutes, and a whole run can fall in one stretch. The probe sees the
   same swings: 800k pseudo-random read-modify-writes over 32 MB kept
   outside the OCaml heap. It allocates only its two clock readings, so
   neither the program's heap nor a change to the program moves its
   time. Throughput is
   reported scaled by probe time / [probe_nominal_s]. *)
let probe_words = 1 lsl 22

(* The probe's median on a 2.1 GHz Xeon VM, the reference speed. *)
let probe_nominal_s = 0.013

let probe_area =
  lazy
    (let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout probe_words in
     Bigarray.Array1.fill a 0;
     a)

let probe () =
  let a = Lazy.force probe_area in
  let t0 = now () in
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to 800_000 do
    x := ((!x * 1103515245) + 12345) land (probe_words - 1);
    acc := !acc + Bigarray.Array1.unsafe_get a !x;
    Bigarray.Array1.unsafe_set a !x (!acc land 7)
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

(* Per-name totals of the benchmark's spans: wall seconds, calls and
   allocated words. Spans nest; each total is inclusive. *)
type acc = { mutable s : float; mutable calls : int; mutable words : int }

let accs : (string, acc) Hashtbl.t = Hashtbl.create 32
let tracing = ref false

let acc name =
  match Hashtbl.find_opt accs name with
  | Some a -> a
  | None ->
    let a = { s = 0.0; calls = 0; words = 0 } in
    Hashtbl.add accs name a;
    a

let span name f =
  if not !tracing then f ()
  else begin
    let a = acc name in
    let w0 = words () and t0 = now () in
    let r = f () in
    a.s <- a.s +. (now () -. t0);
    a.calls <- a.calls + 1;
    a.words <- a.words + (words () - w0);
    r
  end

(* A count recorded at a layer boundary, outside any span. *)
let bump name k = if !tracing then (acc name).calls <- (acc name).calls + k

(* ------------------------------------------------------------------ *)
(* Inputs *)

let nwchem_requests () =
  List.concat_map
    (fun family ->
      List.init 9 (fun i ->
          {
            Engine.label = Benchsuite.Nwchem.kernel_label family (i + 1);
            src = Benchsuite.Nwchem.dsl family ~index:(i + 1) ~n:nwchem_n;
          }))
    Benchsuite.Nwchem.families

let table2_requests () =
  List.map
    (fun (b : Tuner.benchmark) ->
      { Engine.label = b.label; src = Autotune.Provenance.dsl_of_statements b.statements })
    (Benchsuite.Suite.all_individual ())

(* The warm-up tune of every set-up: NWChem d1_1 at a trip count no timed
   operation uses, so its key is outside every workload's key set. *)
let warmup_request = { Engine.label = "warmup"; src = Benchsuite.Nwchem.dsl D1 ~index:1 ~n:4 }

(* An alpha-renaming, the way an unrelated client would write the program. *)
let relabeled src =
  Octopi.Parse.program src
  |> Canonical.relabel ~index:(fun i -> "q" ^ i) ~tensor:(fun t -> String.capitalize_ascii t ^ "x")
  |> Octopi.Ast.to_string

let engine_config ~dir ~capacity =
  {
    Engine.default_config with
    arch;
    domains = 1;
    seed = tuning_seed;
    cache_dir = Some dir;
    cache_capacity = capacity;
  }

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* Every run gets fresh cache directories under the checkout. *)
let scratch_root = Filename.concat ".perfbench" (Printf.sprintf "run-%d" (Unix.getpid ()))
let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let d = Filename.concat scratch_root (string_of_int !dir_counter) in
  Util.Fs.mkdir_p d;
  d

(* ------------------------------------------------------------------ *)
(* Winners and checks *)

type winner = { variant_ids : int list; recipe : string; kernel_time_s : float }

let winner_of (c : Tuner.candidate) (report : Gpusim.Gpu.report) =
  {
    variant_ids = c.variant_ids;
    recipe = Autotune.Provenance.recipe_key c.points;
    kernel_time_s = report.kernel_time_s;
  }

let winner_of_result (r : Tuner.result) = winner_of r.best r.best_report

(* A cold operation's output is right when it was tuned under the key the
   benchmark computed itself, the winner passed translation validation
   wherever the gate's budget allowed it to run, and its modeled GFLOPS is
   a finite positive number. *)
let cold_ok ~key (r : Engine.response) cuda_bytes =
  let b = r.result.benchmark in
  let semantic_ok =
    match r.result.semantic with
    | Some v -> v.Check.Semantic.equivalent
    | None -> Check.Semantic.cost b.statements > Check.Semantic.gate_budget
  in
  r.key = key && r.served = Engine.Tuned && semantic_ok && Float.is_finite r.result.gflops
  && r.result.gflops > 0.0 && cuda_bytes > 0

(* Cache.find with the hit/disk/eviction counts the traced run reports. *)
let traced_find cache key =
  let evictions () = (Cache.stats cache).evictions in
  let e0 = if !tracing then evictions () else 0 in
  let found = span "service.cache" (fun () -> Cache.find cache key) in
  if !tracing then begin
    bump "service.cache.evictions" (evictions () - e0);
    match found with
    | Some (_, Cache.Memory) -> bump "service.cache.hits" 1
    | Some (_, Cache.Disk) ->
      bump "service.cache.hits" 1;
      bump "service.cache.disk" 1
    | None -> ()
  end;
  found

(* ------------------------------------------------------------------ *)
(* Staged replays: the public calls Engine.batch and Tuner.tune make,
   one at a time, each inside a span. *)

type replayed = { r_winner : winner; r_semantic : bool option }

(* The tuner's pipeline with the engine's seed and config: variants ->
   statically gated pool -> schema/encoding -> SURF over simulated
   measurements -> best measurement -> semantic gate -> CUDA. *)
let replay_tune (cfg : Engine.config) (b : Tuner.benchmark) =
  let rng = Util.Rng.create cfg.seed in
  let choices = span "tcr.variant_choices" (fun () -> Tuner.variant_choices b) in
  bump "tcr.variants" (List.length choices);
  let gate space p =
    span "check.static" (fun () ->
        let bad =
          Check.Diag.has_errors (Check.Verify.space_point ~lints:false ~arch:cfg.arch space p)
        in
        if bad then bump "check.static.rejected" 1;
        not bad)
  in
  let pool =
    span "autotune.pool" (fun () ->
        let build ?gate () =
          Tuner.build_pool ~pool_per_variant:cfg.pool_per_variant ?gate rng choices
        in
        (* the tuner searches the ungated pool when the gate rejects all *)
        match build ~gate () with [||] -> build () | pool -> pool)
  in
  bump "autotune.pool.size" (Array.length pool);
  let schema =
    span "surf.schema" (fun () ->
        Surf.Feature.make_schema
          (Array.to_list (Array.map (fun (c : Tuner.candidate) -> c.features) pool)))
  in
  let encode (c : Tuner.candidate) =
    span "surf.encode" (fun () -> Surf.Feature.encode schema c.features)
  in
  let evaluator = Autotune.Evaluator.create ~reps:cfg.reps cfg.arch in
  let eval (c : Tuner.candidate) =
    span "gpusim.eval" (fun () -> Autotune.Evaluator.objective evaluator c.ir c.points)
  in
  let config =
    { Surf.Search.default_config with max_evals = cfg.max_evals; batch_size = cfg.batch_size }
  in
  let search = span "surf.search" (fun () -> Surf.Search.surf ~config rng ~pool ~encode ~eval) in
  let best = search.best.config in
  let report =
    span "gpusim.measure" (fun () -> Autotune.Evaluator.measure evaluator best.ir best.points)
  in
  let semantic =
    let cost = Check.Semantic.cost b.statements in
    if cost > Check.Semantic.gate_budget then begin
      bump "check.semantic.skipped" 1;
      None
    end
    else begin
      let v =
        span "check.semantic" (fun () ->
            Check.Semantic.validate ~label:b.label b.statements ~variant_ids:best.variant_ids
              ~ir:best.ir ~points:best.points)
      in
      bump "check.semantic.points" (cost * v.rounds_run);
      Some v.equivalent
    end
  in
  let cuda = span "codegen.emit" (fun () -> Codegen.Cuda.emit_program best.ir best.points) in
  bump "codegen.cuda_bytes" (String.length cuda);
  { r_winner = winner_of best report; r_semantic = semantic }

(* The real call and its replay agree on the winner - variant ids, points,
   kernel time - and on the semantic verdict. *)
let same_winner rp (r : Tuner.result) =
  rp.r_winner = winner_of_result r
  && rp.r_semantic = Option.map (fun (v : Check.Semantic.verdict) -> v.equivalent) r.semantic

(* Engine.batch's hit path for one batch, against [cache]: canonicalize,
   deduplicate, look up every unique key, restore every hit. *)
let replay_hits (cfg : Engine.config) cache (requests : Engine.request list) =
  bump "service.requests" (List.length requests);
  let canons =
    List.map (fun (r : Engine.request) -> span "service.canonical" (fun () -> Canonical.of_dsl ~arch r.src)) requests
  in
  let served = Hashtbl.create 16 in
  List.map
    (fun (canon : Canonical.t) ->
      match Hashtbl.find_opt served canon.key with
      | Some (_, w) ->
        bump "service.deduplicated" 1;
        (canon.key, Some (Engine.Deduplicated, w))
      | None ->
        let found = traced_find cache canon.key in
        let answer =
          Option.map
            (fun ((entry : Cache.entry), source) ->
              let r =
                span "autotune.restore" (fun () ->
                    Autotune.Store.restore_result ~reps:cfg.reps ~arch:cfg.arch
                      (Canonical.benchmark canon) entry.saved)
              in
              ( (match source with Cache.Memory -> Engine.Memory_hit | Cache.Disk -> Engine.Disk_hit),
                winner_of_result r ))
            found
        in
        Option.iter (fun a -> Hashtbl.replace served canon.key a) answer;
        (canon.key, answer))
    canons


(* ------------------------------------------------------------------ *)
(* Cold passes *)

type tally = { mutable attempted : int; mutable failed : int }

let fail tally = tally.failed <- tally.failed + 1

type tuned = {
  t_key : string;
  t_canon : Canonical.t;
  t_wall : float;  (* Engine.batch plus CUDA emission *)
  t_probe : float;  (* the probe just before it *)
  t_winner : winner;
  t_gflops : float;
}

(* Every artifact a pass cached must restore to the winner it tuned. *)
let check_artifacts (cfg : Engine.config) tally tuned =
  let dir = Option.get cfg.cache_dir in
  let entries = (Cache.inventory ~dir).entries in
  List.iter
    (fun t ->
      let restored () =
        let e = List.find (fun (e : Cache.entry) -> e.key = t.t_key) entries in
        span "autotune.restore" (fun () ->
            Autotune.Store.restore_result ~reps:cfg.reps ~arch:cfg.arch
              (Canonical.benchmark t.t_canon) e.saved)
      in
      match restored () with
      | r when winner_of_result r = t.t_winner -> ()
      | _ | (exception _) -> fail tally)
    tuned

(* One cold tune per Engine.batch over [requests] (request, expected key),
   each followed by emitting the winner's CUDA. A traced run replays every
   tune and returns the replays' wall time. *)
let cold_pass (cfg : Engine.config) engine tally requests =
  let replay_cache = Cache.create ~dir:(fresh_dir ()) () in
  let replay_s = ref 0.0 in
  let replay_matches (req : Engine.request) (r : Engine.response) =
    Gc.full_major ();
    let rp, dt =
      timed (fun () ->
          let canon = span "service.canonical" (fun () -> Canonical.of_dsl ~arch req.src) in
          ignore (traced_find replay_cache canon.key);
          replay_tune cfg (Canonical.benchmark canon))
    in
    replay_s := !replay_s +. dt;
    same_winner rp r.result
  in
  let op (req : Engine.request) () =
    match span "service.batch" (fun () -> Engine.batch engine [ req ]) with
    | [ r ] -> (r, String.length (Tuner.emit_cuda r.result))
    | _ -> failwith "Engine.batch answered one request with several responses"
  in
  let tuned =
    List.filter_map
      (fun ((req : Engine.request), key) ->
        tally.attempted <- tally.attempted + 1;
        let probe_s = probe () in
        (* every tune, real or replayed, starts from a fully collected heap,
           so its time and the heap's peak do not depend on where the
           previous one left the major cycle *)
        Gc.full_major ();
        match timed (op req) with
        | exception _ ->
          fail tally;
          None
        | (r, cuda_bytes), wall ->
          let ok =
            cold_ok ~key r cuda_bytes
            && ((not !tracing) || try replay_matches req r with _ -> false)
          in
          if not ok then begin
            fail tally;
            None
          end
          else
            Some
              {
                t_key = r.key;
                t_canon = Canonical.of_dsl ~arch req.src;
                t_wall = wall;
                t_probe = probe_s;
                t_winner = winner_of_result r.result;
                t_gflops = r.result.gflops;
              })
      requests
  in
  check_artifacts cfg tally tuned;
  (tuned, !replay_s)

(* ------------------------------------------------------------------ *)
(* Set-up *)

let median = Util.Stats.median

(* Parse the inputs (and compute the key the benchmark expects for each),
   run one warm-up tune outside the key set, compact the heap. *)
let setup requests =
  let keyed = List.map (fun (r : Engine.request) -> (r, (Canonical.of_dsl ~arch r.src).key)) requests in
  let warm = Engine.create ~config:{ Engine.default_config with arch; domains = 1 } () in
  ignore (Engine.batch warm [ warmup_request ]);
  Gc.compact ();
  keyed

let shuffled ~seed xs = Util.Rng.shuffle (Util.Rng.create seed) xs

type report = {
  tally : tally;
  setup_s : float;
  setup_note : string;
  req_per_s : float;  (* as measured *)
  req_per_ref_s : float;  (* scaled to the probe's reference speed *)
  peak_heap_mb : float;
  gflops : float list;  (* one per distinct winner served *)
  lines : (string * float * string * string) list;  (* human-only figures *)
  real_s : float;  (* traced runs: untraced timed calls ... *)
  replay_s : float;  (* ... and their span-wrapped replays *)
}

let geomean xs = exp (Util.Stats.mean (List.map log xs))

(* Top-heap words. Cold runs read them after the set-up and the first pass:
   later passes repeat the same work, and since the OCaml 5.1 heap never
   shrinks (Gc.compact moves nothing), they would only add fragmentation.
   The top is only steady under a tight GC: see [gc_space_overhead]. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ------------------------------------------------------------------ *)
(* Cold workloads *)

let run_cold workload ~seed ~seconds =
  let requests =
    shuffled ~seed (match workload with Cold_table2 -> table2_requests () | _ -> nwchem_requests ())
  in
  let setups = List.init setup_repeats (fun _ -> timed (fun () -> setup requests)) in
  let keyed = fst (List.hd setups) in
  let tally = { attempted = 0; failed = 0 } in
  let t0 = now () in
  (* whole passes, each on a fresh engine and cache directory, until the
     run has measured for [seconds] (a traced run makes exactly one) *)
  let peak = ref nan in
  let rec passes acc =
    let cfg =
      engine_config ~dir:(fresh_dir ()) ~capacity:Engine.default_config.cache_capacity
    in
    let tuned, replay_s = cold_pass cfg (Engine.create ~config:cfg ()) tally keyed in
    let pass_s = List.fold_left (fun a t -> a +. t.t_wall) 0.0 tuned in
    if acc = [] then peak := peak_heap_mb ();
    let acc = (tuned, pass_s, replay_s) :: acc in
    if (not !tracing) && now () -. t0 < seconds then passes acc else List.rev acc
  in
  let passes = passes [] in
  let tuned = List.concat_map (fun (t, _, _) -> t) passes in
  let ops_s = List.map (fun t -> t.t_wall) tuned in
  let suite_s = median (List.map (fun (_, s, _) -> s) passes) in
  {
    tally;
    setup_s = median (List.map snd setups);
    setup_note = Printf.sprintf "median of %d set-ups" setup_repeats;
    req_per_s = float_of_int (List.length tuned) /. List.fold_left ( +. ) 0.0 ops_s;
    req_per_ref_s =
      float_of_int (List.length tuned)
      /. List.fold_left ( +. ) 0.0 ops_s
      *. (Util.Stats.mean (List.map (fun t -> t.t_probe) tuned) /. probe_nominal_s);
    peak_heap_mb = !peak;
    gflops = List.map (fun t -> t.t_gflops) tuned;
    lines =
      [
        ( "suite_tune_s", suite_s, "s",
          Printf.sprintf "%d tunes per pass, median of %d pass(es)" (List.length keyed)
            (List.length passes) );
      ]
      @
      if List.length ops_s >= 21 then
        [ ("tune_p50_s", median ops_s, "s", Printf.sprintf "n=%d" (List.length ops_s)) ]
      else [];
    real_s = List.fold_left ( +. ) 0.0 ops_s;
    replay_s = List.fold_left (fun a (_, _, r) -> a +. r) 0.0 passes;
  }

(* ------------------------------------------------------------------ *)
(* Serve workload *)

(* Ranks 0..n-1 with P(k) proportional to 1/(k+1)^s. *)
let zipf_sampler n s =
  let w = Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let cdf = Array.make n 0.0 in
  ignore
    (Array.fold_left
       (fun (i, c) x ->
         cdf.(i) <- c +. (x /. total);
         (i + 1, cdf.(i)))
       (0, 0.0) w);
  fun rng ->
    let u = Util.Rng.float rng 1.0 in
    let rec find i = if i >= n - 1 || cdf.(i) >= u then i else find (i + 1) in
    find 0

let run_serve ~seed ~seconds =
  let t_setup = now () in
  let originals = shuffled ~seed (nwchem_requests ()) in
  let writings =
    Array.of_list
      (List.map
         (fun (r : Engine.request) ->
           let alias = relabeled r.src in
           [|
             r;
             { Engine.label = r.label ^ "-alias"; src = alias };
             { Engine.label = r.label ^ "-alias2"; src = relabeled alias };
           |])
         originals)
  in
  let expected = Array.map (Array.map (fun (r : Engine.request) -> (Canonical.of_dsl ~arch r.src).key)) writings in
  let keyed = setup originals in
  let cfg = engine_config ~dir:(fresh_dir ()) ~capacity:serve_capacity in
  let engine = Engine.create ~config:cfg () in
  let tally = { attempted = 0; failed = 0 } in
  let filled, fill_replay_s = cold_pass cfg engine tally keyed in
  let fill_real_s = List.fold_left (fun a t -> a +. t.t_wall) 0.0 filled in
  let winners = Hashtbl.create 32 in
  List.iter (fun t -> Hashtbl.replace winners t.t_key (t.t_winner, t.t_gflops)) filled;
  (* the replay's cache: same directory and capacity, its front brought to
     the engine's state by looking the keys up in the order they were
     stored *)
  let replay_cache =
    if !tracing then begin
      let c = Cache.create ?dir:cfg.cache_dir ~capacity:serve_capacity () in
      List.iter (fun t -> ignore (Cache.find c t.t_key)) filled;
      Some c
    end
    else None
  in
  Gc.compact ();
  let setup_s = now () -. t_setup in
  let rng = Util.Rng.create (seed + 1) in
  let zipf = zipf_sampler (Array.length writings) zipf_s in
  let ranks = Array.init (Array.length writings) Fun.id in
  let next_batch i =
    if i mod serve_rank_period = 0 then Util.Rng.shuffle_in_place rng ranks;
    List.init serve_batch (fun _ ->
        let k = ranks.(zipf rng) in
        let w = Util.Rng.int rng 3 in
        (writings.(k).(w), expected.(k).(w)))
  in
  let ok_class = function Engine.Tuned -> false | _ -> true in
  let served_keys = Hashtbl.create 32 in
  let batches = ref [] and sent = ref 0 and replay_s = ref 0.0 and probes = ref [] in
  let t0 = now () in
  while !sent < serve_min_batches || ((not !tracing) && now () -. t0 < seconds) do
    if !sent mod serve_rank_period = 0 then probes := probe () :: !probes;
    let batch = next_batch !sent in
    incr sent;
    let reqs = List.map fst batch in
    tally.attempted <- tally.attempted + serve_batch;
    match timed (fun () -> span "service.batch" (fun () -> Engine.batch engine reqs)) with
    | exception _ -> tally.failed <- tally.failed + serve_batch
    | responses, wall ->
      batches := wall :: !batches;
      let replayed =
        match replay_cache with
        | None -> None
        | Some c ->
          let r, dt = timed (fun () -> try Some (replay_hits cfg c reqs) with _ -> None) in
          replay_s := !replay_s +. dt;
          Some r
      in
      List.iteri
        (fun i ((r : Engine.response), (_, key)) ->
          let w = winner_of_result r.result in
          let ok =
            r.key = key && ok_class r.served
            && (match Hashtbl.find_opt winners key with Some (w', _) -> w = w' | None -> false)
            &&
            match replayed with
            | None -> true
            | Some None -> false
            | Some (Some rs) -> (
              match List.nth rs i with
              | k, Some (cls, w') -> k = key && cls = r.served && w' = w
              | _, None -> false)
          in
          if ok then Hashtbl.replace served_keys key r.result.gflops else fail tally)
        (List.combine responses batch)
  done;
  let walls = List.rev !batches in
  let n = List.length walls in
  (* throughput of each whole window of one popularity order; their median
     keeps a few seconds of a slower machine from moving the figure *)
  let window_rates =
    let a = Array.of_list walls in
    List.init (n / serve_rank_period) (fun w ->
        let busy = Array.fold_left ( +. ) 0.0 (Array.sub a (w * serve_rank_period) serve_rank_period) in
        float_of_int (serve_rank_period * serve_batch) /. busy)
  in
  let window_probes = List.filteri (fun i _ -> i < List.length window_rates) (List.rev !probes) in
  let lines =
    [
      ("fill_batch_s", fill_real_s, "s", "Engine.batch + emission over the set-up's cold tunes");
      ("serve_batch_s", List.fold_left ( +. ) 0.0 walls, "s", "Engine.batch over the timed batches");
      ("batch_p50_ms", 1000.0 *. median walls, "ms", Printf.sprintf "n=%d batches of %d" n serve_batch);
    ]
    @
    if n >= 1000 then
      [ ("batch_p99_ms", 1000.0 *. Util.Stats.percentile 99.0 walls, "ms", Printf.sprintf "n=%d" n) ]
    else []
  in
  {
    tally;
    setup_s;
    setup_note = Printf.sprintf "one set-up: %d cold tunes fill the cache" (List.length filled);
    req_per_s = median window_rates;
    req_per_ref_s =
      median (List.map2 (fun r p -> r *. p /. probe_nominal_s) window_rates window_probes);
    peak_heap_mb = peak_heap_mb ();
    gflops = Hashtbl.fold (fun _ g acc -> g :: acc) served_keys [];
    lines;
    real_s = fill_real_s +. List.fold_left ( +. ) 0.0 walls;
    replay_s = fill_replay_s +. !replay_s;
  }

(* ------------------------------------------------------------------ *)
(* Metrics *)

let end_to_end (r : report) =
  [
    ("setup_s", r.setup_s, "s");
    ("req_per_ref_s", r.req_per_ref_s, "1/s");
    ("kernel_gflops_geomean", geomean r.gflops, "GFLOPS");
    ("peak_heap_mb", r.peak_heap_mb, "MB");
  ]

let per_layer (r : report) =
  let s n = (acc n).s and c n = float_of_int (acc n).calls in
  let mw n = float_of_int (acc n).words /. 1e6 in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  [
    ("check.semantic.s", s "check.semantic", "s");
    ("check.semantic.calls", c "check.semantic", "count");
    ("check.semantic.skipped", c "check.semantic.skipped", "count");
    ("check.semantic.points", c "check.semantic.points", "count");
    ("check.semantic.alloc_mw", mw "check.semantic", "Mword");
    ("surf.encode.s", s "surf.schema" +. s "surf.encode", "s");
    ("surf.encode.calls", c "surf.encode", "count");
    ("surf.encode.per_candidate", ratio (c "surf.encode") (c "autotune.pool.size"), "count");
    ("surf.encode.alloc_mw", mw "surf.schema" +. mw "surf.encode", "Mword");
    (* the pool's own work: its span minus the static gate it calls *)
    ("autotune.pool.s", s "autotune.pool" -. s "check.static", "s");
    ("autotune.pool.size", c "autotune.pool.size", "count");
    ("autotune.pool.alloc_mw", mw "autotune.pool" -. mw "check.static", "Mword");
    ("check.static.s", s "check.static", "s");
    ("check.static.points", c "check.static", "count");
    ("check.static.reject_ratio", ratio (c "check.static.rejected") (c "check.static"), "share");
    (* forest fit and predict: SURF's span minus the encode and evaluation
       closures it calls *)
    ("surf.model.s", s "surf.search" -. s "surf.encode" -. s "gpusim.eval", "s");
    ("gpusim.measure.s", s "gpusim.eval" +. s "gpusim.measure", "s");
    ("gpusim.measure.calls", c "gpusim.eval" +. c "gpusim.measure", "count");
    ("codegen.emit_s", s "codegen.emit", "s");
    ("codegen.cuda_bytes", c "codegen.cuda_bytes", "B");
    ("tcr.variant_choices.s", s "tcr.variant_choices", "s");
    ("tcr.variant_choices.variants", c "tcr.variants", "count");
    ("service.canonical.s", s "service.canonical", "s");
    ("service.canonical.calls", c "service.canonical", "count");
    ("service.cache.s", s "service.cache", "s");
    ("service.cache.hits", c "service.cache.hits", "count");
    ("service.cache.disk_share", ratio (c "service.cache.disk") (c "service.cache.hits"), "share");
    ("service.cache.evictions", c "service.cache.evictions", "count");
    ("autotune.restore.s", s "autotune.restore", "s");
    ("autotune.restore.calls", c "autotune.restore", "count");
    ("autotune.restore.alloc_mw", mw "autotune.restore", "Mword");
    ("service.dedup_share", ratio (c "service.deduplicated") (c "service.requests"), "share");
    ("service.batch.s", s "service.batch", "s");
    ("trace.overhead_share", ratio (r.replay_s -. r.real_s) r.real_s, "share");
  ]

(* ------------------------------------------------------------------ *)
(* Self-test *)

(* Figures that depend only on the seed, never on the clock. The peak heap
   is not one: the engine's own allocation depends on wall-clock values
   (its latency sketches grow a bucket per new magnitude), which moves
   the GC's pacing and so the top of the heap. *)
let deterministic name =
  name = "kernel_gflops_geomean"
  || List.exists
       (fun suffix -> String.ends_with ~suffix name)
       [
         ".calls"; ".alloc_mw"; ".size"; ".points"; ".skipped"; ".variants"; ".hits";
         ".evictions"; ".disk_share"; ".cuda_bytes"; ".per_candidate"; ".reject_ratio";
         ".dedup_share";
       ]

let child_metrics args =
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
  let rec last prev = match input_line ic with l -> last l | exception End_of_file -> prev in
  let line = last "" in
  match (Unix.close_process_in ic, Obs.Json.parse line) with
  | Unix.WEXITED 0, Ok json ->
    let metrics = match Obs.Json.member "metrics" json with Some (Obs.Json.Obj m) -> m | _ -> [] in
    List.filter_map
      (fun (name, v) ->
        Option.map (fun x -> (name, x)) (Option.bind (Obs.Json.member "value" v) Obs.Json.get_num))
      metrics
  | _ -> failwith ("child run failed: " ^ String.concat " " args)

(* Two runs of each mode must agree exactly on every deterministic figure,
   and the replay check must reject a replay made with another seed. *)
let self_test workload ~seed =
  let name = fst (List.find (fun (_, w) -> w = workload) workloads) in
  let ok = ref true in
  List.iter
    (fun trace ->
      let args = [ "--workload"; name; "--seed"; string_of_int seed; "--seconds"; "1"; "--trace"; trace ] in
      let a = child_metrics args and b = child_metrics args in
      List.iter
        (fun (m, x) ->
          if deterministic m then begin
            let y = List.assoc_opt m b in
            let same = y = Some x in
            if not same then ok := false;
            Printf.printf "%-34s %-20.17g %-20s %s\n" m x
              (match y with Some y -> Printf.sprintf "%.17g" y | None -> "missing")
              (if same then "same" else "DIFFERS")
          end)
        a)
    [ "0"; "1" ];
  (* eqn1's pool is large enough that two tuning seeds find different
     winners; small NWChem pools are searched exhaustively *)
  let req = List.hd (table2_requests ()) in
  let cfg = engine_config ~dir:(fresh_dir ()) ~capacity:Engine.default_config.cache_capacity in
  let real = (List.hd (Engine.batch (Engine.create ~config:cfg ()) [ req ])).result in
  let b = Canonical.benchmark (Canonical.of_dsl ~arch req.src) in
  let same_seed = same_winner (replay_tune cfg b) real in
  let other_seed = same_winner (replay_tune { cfg with seed = tuning_seed + 1 } b) real in
  Printf.printf
    "replay of %s: tuning seed %d matches %b (want true), seed %d matches %b (want false)\n"
    req.label tuning_seed same_seed (tuning_seed + 1) other_seed;
  if not (same_seed && not other_seed) then ok := false;
  print_endline (if !ok then "self-test: PASS" else "self-test: FAIL");
  if !ok then 0 else 1

(* ------------------------------------------------------------------ *)
(* Main *)

let run workload ~seed ~seconds ~trace =
  tracing := trace;
  let r =
    match workload with
    | Serve_zipf -> run_serve ~seed ~seconds
    | Cold_nwchem | Cold_table2 -> run_cold workload ~seed ~seconds
  in
  let metrics = if trace then per_layer r else end_to_end r in
  let correct =
    r.tally.failed = 0 && List.for_all (fun (_, v, _) -> Float.is_finite v) metrics
  in
  Printf.printf "%d operations attempted, %d failed; set-up: %s\n" r.tally.attempted r.tally.failed
    r.setup_note;
  List.iter (fun (n, v, u) -> Printf.printf "  %-30s %14.6g %s\n" n v u) metrics;
  if not trace then
    Printf.printf "  %-30s %14.6g 1/s (as measured; probe at %.3gx its reference time)\n"
      "req_per_s" r.req_per_s (r.req_per_ref_s /. r.req_per_s);
  List.iter (fun (n, v, u, note) -> Printf.printf "  %-30s %14.6g %s (%s)\n" n v u note) r.lines;
  let json =
    Obs.Json.Obj
      [
        ("correct", Obs.Json.Bool correct);
        ("attempted", Obs.Json.int r.tally.attempted);
        ("failed", Obs.Json.int r.tally.failed);
        ( "metrics",
          Obs.Json.Obj
            (List.map
               (fun (n, v, u) -> (n, Obs.Json.Obj [ ("value", Obs.Json.Num v); ("unit", Obs.Json.Str u) ]))
               metrics) );
      ]
  in
  print_endline (Obs.Json.to_string json);
  0

let () =
  let usage =
    "main.exe --workload cold-nwchem|cold-table2|serve-zipf --seed N --seconds S --trace 0|1 \
     [--self-test]"
  in
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " seed of the kernel order and the request stream");
      ("--seconds", Arg.Set_float seconds, " how long the timed phase runs at least");
      ("--trace", Arg.Set_int trace, " 1: per-layer metrics from a traced run");
      ("--self-test", Arg.Set self, " check the benchmark's determinism and replay check");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.assoc_opt !workload workloads with
    | Some w when !trace = 0 || !trace = 1 -> w
    | _ ->
      prerr_endline usage;
      exit 2
  in
  let cleanup () =
    rm_rf scratch_root;
    try Unix.rmdir ".perfbench" with Unix.Unix_error _ -> ()
  in
  Gc.set { (Gc.get ()) with space_overhead = gc_space_overhead };
  let code =
    Fun.protect ~finally:cleanup (fun () ->
        if !self then self_test w ~seed:!seed
        else run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1))
  in
  exit code
