(* Tests for the tuning service: canonicalization as a cache identity,
   the persistent cache's corruption tolerance and LRU front, the
   multi-domain scheduler's determinism, and the engine's batch protocol. *)

let arch = Gpusim.Arch.gtx980

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* ---------------- canonicalization ---------------- *)

let eqn1_src = "V[i j k] = Sum([l m n], A[l k] * B[m j] * C[n i] * U[l m n])"

let key_of src = (Service.Canonical.of_dsl ~arch src).key

let test_canonical_renaming_invariant () =
  let renamed =
    "W[p q r] = Sum([s t u], D[s r] * E[t q] * F[u p] * G[s t u])"
  in
  check_str "alpha-renamed program shares the key" (key_of eqn1_src) (key_of renamed)

let test_canonical_extent_sensitivity () =
  let bigger = "dims: i=12\n" ^ eqn1_src in
  check_bool "different extent, different key" true (key_of eqn1_src <> key_of bigger);
  (* declaring the default extent explicitly is not a difference *)
  let explicit_default =
    Printf.sprintf "dims: i=%d\n%s" Octopi.Contraction.default_extent eqn1_src
  in
  check_str "explicit default extent shares the key" (key_of eqn1_src)
    (key_of explicit_default)

let test_canonical_arch_sensitivity () =
  let k key_arch = (Service.Canonical.of_dsl ~arch:key_arch eqn1_src).key in
  check_bool "same program, different arch, different key" true
    (k Gpusim.Arch.gtx980 <> k Gpusim.Arch.k20)

let test_canonical_sum_order_invariant () =
  let permuted = "V[i j k] = Sum([n m l], A[l k] * B[m j] * C[n i] * U[l m n])" in
  check_str "Sum-list order is irrelevant" (key_of eqn1_src) (key_of permuted)

let test_canonical_structure_sensitivity () =
  let other = "V[i j k] = Sum([l m n], A[l k] * B[m j] * C[i n] * U[l m n])" in
  check_bool "transposed factor, different key" true (key_of eqn1_src <> key_of other)

let test_canonical_benchmark_roundtrip () =
  (* the canonical rendering reparses and canonicalizes to itself *)
  let c = Service.Canonical.of_dsl ~arch eqn1_src in
  let c' = Service.Canonical.of_dsl ~arch c.rendered in
  check_str "fixpoint" c.key c'.key;
  check_int "one statement" 1 (List.length (Service.Canonical.benchmark c).statements)

(* QCheck: random contraction programs are key-invariant under injective
   renamings plus dims/Sum-list reordering, and key-sensitive to extents. *)

let random_program rng =
  let names = Util.Rng.shuffle rng [ "i"; "j"; "k"; "l"; "m"; "n"; "o"; "p" ] in
  let n_out = 1 + Util.Rng.int rng 3 and n_sum = 1 + Util.Rng.int rng 2 in
  let out_idx = List.filteri (fun a _ -> a < n_out) names in
  let sum_idx = List.filteri (fun a _ -> a >= n_out && a < n_out + n_sum) names in
  let used = out_idx @ sum_idx in
  let n_factors = 2 + Util.Rng.int rng 2 in
  let factors = Array.make n_factors [] in
  (* every index lands in at least one factor; no duplicates in a factor *)
  List.iter
    (fun i ->
      let f = Util.Rng.int rng n_factors in
      factors.(f) <- i :: factors.(f);
      if Util.Rng.bool rng then begin
        let f' = (f + 1 + Util.Rng.int rng (n_factors - 1)) mod n_factors in
        factors.(f') <- i :: factors.(f')
      end)
    used;
  let extents =
    List.filter_map
      (fun i ->
        if Util.Rng.bool rng then Some (i, 4 + (2 * Util.Rng.int rng 4)) else None)
      (Util.Rng.shuffle rng used)
  in
  let tensor_names = [ "A"; "B"; "C"; "D" ] in
  let factor_refs =
    List.filteri (fun _ idxs -> idxs <> []) (Array.to_list factors)
    |> List.mapi (fun a idxs ->
           { Octopi.Ast.name = List.nth tensor_names a; indices = idxs })
  in
  {
    Octopi.Ast.extents;
    stmts =
      [
        {
          Octopi.Ast.lhs = { name = "Out"; indices = out_idx };
          sum_indices = sum_idx;
          factors = factor_refs;
          accumulate = false;
        };
      ];
  }

let injective_renaming rng prefix names =
  let fresh = List.mapi (fun a n -> (n, Printf.sprintf "%s%d" prefix a)) (Util.Rng.shuffle rng names) in
  fun n -> match List.assoc_opt n fresh with Some f -> f | None -> n

let all_names (p : Octopi.Ast.program) =
  let indices = ref [] and tensors = ref [] in
  let add acc n = if not (List.mem n !acc) then acc := n :: !acc in
  List.iter
    (fun (s : Octopi.Ast.stmt) ->
      add tensors s.lhs.name;
      List.iter (add indices) s.lhs.indices;
      List.iter
        (fun (f : Octopi.Ast.tensor_ref) ->
          add tensors f.name;
          List.iter (add indices) f.indices)
        s.factors)
    p.stmts;
  (!indices, !tensors)

let qcheck_canonical_key_invariant =
  QCheck.Test.make ~name:"canonical key invariant under renaming" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let p = random_program rng in
      let indices, tensors = all_names p in
      let relabeled =
        Service.Canonical.relabel
          ~index:(injective_renaming rng "zz" indices)
          ~tensor:(injective_renaming rng "TT" tensors)
          p
      in
      (* also shuffle the (renamed) dims line and Sum lists: declaration
         order is not part of the problem *)
      let relabeled =
        {
          Octopi.Ast.extents = Util.Rng.shuffle rng relabeled.extents;
          stmts =
            List.map
              (fun (s : Octopi.Ast.stmt) ->
                { s with sum_indices = Util.Rng.shuffle rng s.sum_indices })
              relabeled.stmts;
        }
      in
      let k = (Service.Canonical.of_program ~arch p).key in
      let k' = (Service.Canonical.of_program ~arch relabeled).key in
      k = k')

let qcheck_canonical_key_extent_sensitive =
  QCheck.Test.make ~name:"canonical key sensitive to extents" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let p = random_program rng in
      let indices, _ = all_names p in
      let victim = Util.Rng.pick_list rng indices in
      let old_extent =
        match List.assoc_opt victim p.extents with
        | Some e -> e
        | None -> Octopi.Contraction.default_extent
      in
      let bumped =
        {
          p with
          Octopi.Ast.extents =
            (victim, old_extent + 1) :: List.remove_assoc victim p.extents;
        }
      in
      let k = (Service.Canonical.of_program ~arch p).key in
      let k' = (Service.Canonical.of_program ~arch bumped).key in
      k <> k')

(* ---------------- scheduler ---------------- *)

let test_scheduler_matches_sequential () =
  let xs = List.init 37 (fun i -> i) in
  let f x = (x * x) + 1 in
  List.iter
    (fun domains ->
      let sched = Service.Scheduler.create ~clamp_to_cores:false ~domains () in
      Alcotest.(check (list int))
        (Printf.sprintf "%d domains = List.map" domains)
        (List.map f xs) (Service.Scheduler.map sched f xs))
    [ 1; 2; 4 ]

let test_scheduler_propagates_exception () =
  let sched = Service.Scheduler.create ~clamp_to_cores:false ~domains:3 () in
  check_bool "raises the item's exception" true
    (try
       ignore (Service.Scheduler.map sched (fun x -> if x = 5 then failwith "boom" else x)
                 [ 1; 2; 5; 7 ]);
       false
     with Failure m -> m = "boom")

let test_scheduler_clamps () =
  let sched = Service.Scheduler.create ~domains:64 () in
  check_bool "clamped to the machine" true
    (Service.Scheduler.domains sched <= Domain.recommended_domain_count ());
  check_int "requested preserved" 64 (Service.Scheduler.requested sched)

(* ---------------- evaluator batch path ---------------- *)

let small_cfg = { Surf.Search.default_config with max_evals = 12; batch_size = 4 }

let tune_eqn1 ?batch_map () =
  Autotune.Tuner.tune
    ~strategy:(Autotune.Tuner.Surf_search small_cfg)
    ~pool_per_variant:30 ?batch_map
    ~rng:(Util.Rng.create 7) ~arch (Benchsuite.Suite.eqn1 ~n:6 ())

let same_result (a : Autotune.Tuner.result) (b : Autotune.Tuner.result) =
  a.best.variant_ids = b.best.variant_ids
  && List.map Tcr.Space.point_key a.best.points = List.map Tcr.Space.point_key b.best.points
  && a.best_report.kernel_time_s = b.best_report.kernel_time_s
  && a.evaluations = b.evaluations
  && a.search_seconds = b.search_seconds
  && a.convergence = b.convergence

let test_batch_map_identity () =
  (* a trivial order-preserving executor is bit-identical to none *)
  let plain = tune_eqn1 () in
  let mapped = tune_eqn1 ~batch_map:(fun thunks -> List.map (fun f -> f ()) thunks) () in
  check_bool "identical result" true (same_result plain mapped)

(* ---------------- parallel-vs-sequential determinism ---------------- *)

let service_with domains =
  Service.Engine.create
    ~config:
      {
        Service.Engine.default_config with
        arch;
        domains;
        clamp_domains = false;  (* force true multi-domain execution *)
        max_evals = 12;
        batch_size = 4;
        pool_per_variant = 30;
        seed = 7;
      }
    ()

let test_parallel_determinism () =
  (* Eqn.(1) tuned with 1, 2 and 4 domains: identical best config and
     objective (evaluation is pure; batches merge in input order) *)
  let tune domains =
    let svc = service_with domains in
    let r = Service.Engine.tune_dsl svc (Octopi.Ast.to_string
      (Octopi.Parse.program "dims: i=6 j=6 k=6 l=6 m=6 n=6
V[i j k] = Sum([l m n], A[l k] * B[m j] * C[n i] * U[l m n])")) in
    Alcotest.(check bool) "cold request was tuned" true (r.served = Service.Engine.Tuned);
    r.result
  in
  let r1 = tune 1 and r2 = tune 2 and r4 = tune 4 in
  check_bool "1 vs 2 domains" true (same_result r1 r2);
  check_bool "1 vs 4 domains" true (same_result r1 r4)

let test_request_parallel_determinism () =
  (* several distinct cold requests: the request-level parallel path also
     yields per-key identical results *)
  let reqs =
    [
      { Service.Engine.label = "m16"; src = "dims: i=16 j=16 k=16\nC[i j] = Sum([k], A[i k] * B[k j])" };
      { Service.Engine.label = "m20"; src = "dims: i=20 j=16 k=16\nC[i j] = Sum([k], A[i k] * B[k j])" };
      { Service.Engine.label = "m24"; src = "dims: i=24 j=16 k=16\nC[i j] = Sum([k], A[i k] * B[k j])" };
    ]
  in
  let run domains = Service.Engine.batch (service_with domains) reqs in
  let a = run 1 and b = run 4 in
  List.iter2
    (fun (x : Service.Engine.response) (y : Service.Engine.response) ->
      check_str "same key" x.key y.key;
      check_bool "same result" true (same_result x.result y.result))
    a b

(* ---------------- cache ---------------- *)

let tmp_dir () = Filename.temp_file "svc" "" |> fun f -> Sys.remove f; f

let tune_once src =
  let svc = service_with 1 in
  (Service.Engine.tune_dsl svc src).result

let test_cache_roundtrip_disk () =
  let dir = tmp_dir () in
  let cache = Service.Tuning_cache.create ~dir () in
  let r = tune_once "C[i j] = Sum([k], A[i k] * B[k j])" in
  let saved = Autotune.Store.of_result r in
  Service.Tuning_cache.store cache ~key:"k1" saved;
  (* a second cache over the same directory serves from disk *)
  let cache2 = Service.Tuning_cache.create ~dir () in
  (match Service.Tuning_cache.find cache2 "k1" with
  | Some (e, Service.Tuning_cache.Disk) ->
    check_str "label survives" saved.label e.saved.Autotune.Store.label;
    check_bool "recipe survives" true (e.saved.recipe = saved.recipe)
  | _ -> Alcotest.fail "expected a disk hit");
  (* now promoted: a second find is a memory hit *)
  match Service.Tuning_cache.find cache2 "k1" with
  | Some (_, Service.Tuning_cache.Memory) -> ()
  | _ -> Alcotest.fail "expected a memory hit"

let test_cache_corruption_tolerated () =
  let dir = tmp_dir () in
  let cache = Service.Tuning_cache.create ~dir () in
  let oc = open_out (Filename.concat dir "bad.tuning") in
  output_string oc "not an artifact at all";
  close_out oc;
  check_bool "garbage entry is a miss" true (Service.Tuning_cache.find cache "bad" = None);
  let s = Service.Tuning_cache.stats cache in
  check_int "counted corrupt" 1 s.corrupt;
  check_int "counted miss" 1 s.misses;
  (* a truncated valid entry is equally tolerated *)
  let r = tune_once "C[i j] = Sum([k], A[i k] * B[k j])" in
  Service.Tuning_cache.store cache ~key:"t1" (Autotune.Store.of_result r);
  let path = Filename.concat dir "t1.tuning" in
  let oc = open_out path in
  output_string oc (String.sub (Service.Tuning_cache.render_entry
    { key = "t1"; saved = Autotune.Store.of_result r }) 0 30);
  close_out oc;
  let fresh = Service.Tuning_cache.create ~dir () in
  check_bool "truncated entry is a miss" true (Service.Tuning_cache.find fresh "t1" = None);
  check_int "fresh cache counted corrupt" 1 (Service.Tuning_cache.stats fresh).corrupt

let test_cache_lru_eviction () =
  let cache = Service.Tuning_cache.create ~capacity:2 () in
  let r = tune_once "C[i j] = Sum([k], A[i k] * B[k j])" in
  let saved = Autotune.Store.of_result r in
  Service.Tuning_cache.store cache ~key:"a" saved;
  Service.Tuning_cache.store cache ~key:"b" saved;
  ignore (Service.Tuning_cache.find cache "a");  (* a is now MRU *)
  Service.Tuning_cache.store cache ~key:"c" saved;  (* evicts b *)
  check_int "front size bounded" 2 (Service.Tuning_cache.size cache);
  check_bool "b evicted (memory-only: miss)" true (Service.Tuning_cache.find cache "b" = None);
  check_bool "a survived" true (Service.Tuning_cache.find cache "a" <> None);
  check_int "one eviction" 1 (Service.Tuning_cache.stats cache).evictions

let test_cache_entry_version_gate () =
  let r = tune_once "C[i j] = Sum([k], A[i k] * B[k j])" in
  let e = { Service.Tuning_cache.key = "k"; saved = Autotune.Store.of_result r } in
  let text = Service.Tuning_cache.render_entry e in
  let e' = Service.Tuning_cache.parse_entry text in
  check_str "roundtrip key" "k" e'.key;
  check_bool "future version rejected" true
    (try
       ignore (Service.Tuning_cache.parse_entry
         ("barracuda-service-cache v999\n" ^ text));
       false
     with Service.Tuning_cache.Error _ -> true)

(* ---------------- engine batch protocol ---------------- *)

let test_engine_dedup_and_hits () =
  let svc = service_with 1 in
  let reqs =
    [
      { Service.Engine.label = "orig"; src = eqn1_src };
      { Service.Engine.label = "alias";
        src = "W[p q r] = Sum([s t u], D[s r] * E[t q] * F[u p] * G[s t u])" };
    ]
  in
  (match Service.Engine.batch svc reqs with
  | [ a; b ] ->
    check_bool "first tuned" true (a.served = Service.Engine.Tuned);
    check_bool "second deduplicated" true (b.served = Service.Engine.Deduplicated);
    check_str "same key" a.key b.key;
    check_bool "same tuned config" true (same_result a.result b.result)
  | _ -> Alcotest.fail "two responses expected");
  (* the identical batch again: served from the LRU front, no search *)
  (match Service.Engine.batch svc reqs with
  | [ a; b ] ->
    check_bool "first now a memory hit" true (a.served = Service.Engine.Memory_hit);
    check_bool "second still deduplicated" true (b.served = Service.Engine.Deduplicated);
    check_int "hit result re-measured, not searched" 0 a.result.evaluations
  | _ -> Alcotest.fail "two responses expected");
  let m = Service.Engine.metrics svc in
  check_int "four requests" 4 (Service.Metrics.counter m "requests");
  check_int "one tune" 1 (Service.Metrics.counter m "serve.tuned");
  check_int "one memory hit" 1 (Service.Metrics.counter m "serve.hit.memory");
  check_int "two deduplicated" 2 (Service.Metrics.counter m "serve.deduplicated");
  let s = Service.Engine.cache_stats svc in
  check_int "cache hits" 1 s.hits;
  check_int "cache misses" 1 s.misses

let test_engine_hit_emits_identical_cuda () =
  (* a cache hit must reproduce the tuned kernel exactly *)
  let svc = service_with 1 in
  let r1 = (Service.Engine.tune_dsl svc eqn1_src).result in
  let r2 = (Service.Engine.tune_dsl svc eqn1_src).result in
  check_str "identical CUDA" (Autotune.Tuner.emit_cuda r1) (Autotune.Tuner.emit_cuda r2)

let test_engine_renaming_reported () =
  let svc = service_with 1 in
  let r = Service.Engine.tune_dsl ~label:"x" svc eqn1_src in
  check_bool "tensor renaming covers V" true
    (List.mem_assoc "V" r.renaming.tensors);
  check_bool "index renaming covers i" true (List.mem_assoc "i" r.renaming.indices)

(* ---------------- metrics ---------------- *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_metrics_counters_and_histogram () =
  let m = Service.Metrics.create () in
  Service.Metrics.incr m "a";
  Service.Metrics.incr ~by:4 m "a";
  check_int "accumulates" 5 (Service.Metrics.counter m "a");
  Service.Metrics.observe m "lat" 0.0005;
  Service.Metrics.observe m "lat" 0.05;
  Service.Metrics.observe m "lat" 2.0;
  let h = Service.Metrics.histogram m "lat" in
  check_int "three samples bucketed" 3 (List.fold_left (fun acc (_, n) -> acc + n) 0 h);
  let s = List.assoc "lat" (Service.Metrics.summaries m) in
  check_int "count" 3 s.count;
  check_bool "median within the sketch bound of the middle sample" true
    (abs_float (s.median_s -. 0.05) <= Service.Metrics.sketch_alpha *. 0.05);
  check_bool "render mentions the counter" true
    (contains_sub (Service.Metrics.render m) "a")

let test_histogram_decade_edges () =
  (* an observation exactly on a decade boundary belongs to the bucket it
     opens: semantics are [lo, hi) with an unbounded last bucket *)
  let m = Service.Metrics.create () in
  List.iter (Service.Metrics.observe m "edge") [ 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0 ];
  let h = Service.Metrics.histogram m "edge" in
  let count label = List.assoc label h in
  check_int "below 100us empty" 0 (count "<100us");
  check_int "100us lands in [100us,1ms)" 1 (count "100us-1ms");
  check_int "1ms lands in [1ms,10ms)" 1 (count "1ms-10ms");
  check_int "10ms lands in [10ms,100ms)" 1 (count "10ms-100ms");
  check_int "100ms lands in [100ms,1s)" 1 (count "100ms-1s");
  check_int "1s lands in [1s,10s)" 1 (count "1s-10s");
  check_int "10s lands in the open tail" 1 (count ">=10s");
  (* just under a boundary stays in the lower bucket *)
  Service.Metrics.observe m "edge" (1e-3 -. 1e-9);
  let h = Service.Metrics.histogram m "edge" in
  check_int "sub-boundary stays below" 2 (List.assoc "100us-1ms" h)

let test_timer_summary_tail_quantiles () =
  let m = Service.Metrics.create () in
  (* 1ms .. 100ms in 1ms steps *)
  for i = 1 to 100 do
    Service.Metrics.observe m "lat" (float_of_int i /. 1000.0)
  done;
  let s = List.assoc "lat" (Service.Metrics.summaries m) in
  check_bool "p90 between p50 and p99" true (s.median_s <= s.p90_s && s.p90_s <= s.p99_s);
  check_bool "p90 near 90ms" true (abs_float (s.p90_s -. 0.0901) < 1e-3);
  check_bool "p99 near 99ms" true (abs_float (s.p99_s -. 0.0990) < 1e-3);
  check_bool "p99 bounded by max" true (s.p99_s <= s.max_s);
  check_bool "render shows tail quantiles" true
    (contains_sub (Service.Metrics.render m) "p99")

let test_prometheus_report () =
  let svc = service_with 1 in
  ignore (Service.Engine.tune_dsl svc eqn1_src);
  ignore (Service.Engine.tune_dsl svc eqn1_src);
  let s = Service.Engine.prometheus_report svc in
  check_bool "service counters exported" true
    (contains_sub s "barracuda_requests_total 2");
  check_bool "cache hit gauge exported" true (contains_sub s "barracuda_cache_hits_total 1");
  check_bool "timers exported as histograms" true
    (contains_sub s "barracuda_request_wall_seconds_count")

let suite =
  [
    ("canonical: renaming invariant", `Quick, test_canonical_renaming_invariant);
    ("canonical: extent sensitive", `Quick, test_canonical_extent_sensitivity);
    ("canonical: arch sensitive", `Quick, test_canonical_arch_sensitivity);
    ("canonical: Sum order invariant", `Quick, test_canonical_sum_order_invariant);
    ("canonical: structure sensitive", `Quick, test_canonical_structure_sensitivity);
    ("canonical: fixpoint", `Quick, test_canonical_benchmark_roundtrip);
    QCheck_alcotest.to_alcotest qcheck_canonical_key_invariant;
    QCheck_alcotest.to_alcotest qcheck_canonical_key_extent_sensitive;
    ("scheduler: matches sequential map", `Quick, test_scheduler_matches_sequential);
    ("scheduler: propagates exceptions", `Quick, test_scheduler_propagates_exception);
    ("scheduler: clamps to cores", `Quick, test_scheduler_clamps);
    ("tuner: batch_map identity", `Quick, test_batch_map_identity);
    ("determinism: 1/2/4 domains, one request", `Slow, test_parallel_determinism);
    ("determinism: request-level parallelism", `Slow, test_request_parallel_determinism);
    ("cache: disk roundtrip + promotion", `Quick, test_cache_roundtrip_disk);
    ("cache: corruption tolerated", `Quick, test_cache_corruption_tolerated);
    ("cache: LRU eviction", `Quick, test_cache_lru_eviction);
    ("cache: entry version gate", `Quick, test_cache_entry_version_gate);
    ("engine: dedup + hits + metrics", `Quick, test_engine_dedup_and_hits);
    ("engine: hit emits identical cuda", `Quick, test_engine_hit_emits_identical_cuda);
    ("engine: renaming reported", `Quick, test_engine_renaming_reported);
    ("metrics: counters + histogram", `Quick, test_metrics_counters_and_histogram);
    ("metrics: histogram decade edges", `Quick, test_histogram_decade_edges);
    ("metrics: p90/p99 tail quantiles", `Quick, test_timer_summary_tail_quantiles);
    ("engine: prometheus report", `Quick, test_prometheus_report);
  ]
