(* Tests for the semantic layer: translation validation over the prime
   field (Check.Semantic), the mutation self-test harness (Check.Mutate),
   the symbolic access analysis (Check.Access), and their plumbing through
   the tuner's semantic gate, the journal and the doctor. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let eqn1_src =
  "dims: i=10 j=10 k=10 l=10 m=10 n=10\n\
   V[i j k] = Sum([l m n], A[l k] * B[m j] * C[n i] * U[l m n])"

let matmul_src = "dims: i=32 j=32 k=32\nC[i j] = Sum([k], A[i k] * B[k j])"

let has_code c ds = List.exists (fun (d : Check.Diag.t) -> d.code = c) ds

(* First variant choice of a DSL program plus one enumerated point per op. *)
let first_candidate src label =
  let b = Autotune.Tuner.benchmark_of_dsl ~label src in
  let c = List.hd (Autotune.Tuner.variant_choices b) in
  let points =
    List.map
      (fun s -> List.hd (Tcr.Space.enumerate s))
      c.Autotune.Tuner.spaces.op_spaces
  in
  (b, c, points)

let validate ?rounds ?mutate_kernel src label =
  let b, c, points = first_candidate src label in
  Check.Semantic.validate ?rounds ?mutate_kernel ~label b.statements
    ~variant_ids:c.Autotune.Tuner.ids ~ir:c.Autotune.Tuner.v_ir ~points

(* ---------------- translation validation ---------------- *)

let test_matmul_equivalent () =
  let v = validate matmul_src "mm" in
  check_bool "equivalent" true v.Check.Semantic.equivalent;
  check_int "no diags" 0 (List.length v.diags);
  check_int "five stage digests" 5 (List.length v.stages);
  Alcotest.(check (list string))
    "stage order"
    [ "dsl"; "variant"; "tcr"; "recipe"; "kernel" ]
    (List.map fst v.stages)

let test_validate_deterministic () =
  let a = validate matmul_src "mm" and b = validate matmul_src "mm" in
  Alcotest.(check (list (pair string string)))
    "digests identical across runs" a.Check.Semantic.stages b.Check.Semantic.stages

(* Every one of Eqn.(1)'s variants validates across all five stages, for
   several points of each variant's space. *)
let test_eqn1_all_variants () =
  let b = Autotune.Tuner.benchmark_of_dsl ~label:"eqn1" eqn1_src in
  let choices = Autotune.Tuner.variant_choices b in
  check_int "paper's 15 variants" 15 (List.length choices);
  let rng = Util.Rng.create 7 in
  List.iter
    (fun (c : Autotune.Tuner.variant_choice) ->
      let points = List.map (fun s -> Tcr.Space.sample rng s) c.spaces.op_spaces in
      let v =
        Check.Semantic.validate ~rounds:1 ~label:"eqn1" b.statements ~variant_ids:c.ids
          ~ir:c.v_ir ~points
      in
      if not v.equivalent then
        Alcotest.failf "variant %s not equivalent:\n%s"
          (String.concat "." (List.map string_of_int c.ids))
          (Check.Diag.render_report v.diags))
    choices

(* The eqn1 variant choice and per-op points that most permute reduction
   orders and unroll loops. *)
let permuted_candidate () =
  let b = Autotune.Tuner.benchmark_of_dsl ~label:"eqn1" eqn1_src in
  let choices = Autotune.Tuner.variant_choices b in
  let score (p : Tcr.Space.point) =
    (if List.length p.red_order > 1 then 2 else 0)
    + if List.exists (fun (_, u) -> u > 1) p.unrolls then 1 else 0
  in
  let best_point space =
    let points = Tcr.Space.enumerate space in
    List.fold_left (fun best q -> if score q > score best then q else best)
      (List.hd points) points
  in
  let total_score, c, points =
    List.fold_left
      (fun (best_s, _, _ as best) (c : Autotune.Tuner.variant_choice) ->
        let ps = List.map best_point c.spaces.op_spaces in
        let s = List.fold_left (fun acc p -> acc + score p) 0 ps in
        if s > best_s then (s, Some c, ps) else best)
      (-1, None, []) choices
  in
  check_bool "found a permuted or unrolled point" true (total_score > 0);
  (b, Option.get c, points)

(* Unrolling and reduction reordering are semantics-preserving: validate a
   point with unrolls and a permuted red_order. *)
let test_permuted_schedule_equivalent () =
  let b, c, points = permuted_candidate () in
  let v =
    Check.Semantic.validate ~rounds:1 ~label:"eqn1" b.statements ~variant_ids:c.ids
      ~ir:c.v_ir ~points
  in
  check_bool "permuted+unrolled point equivalent" true v.equivalent

(* ---------------- stage-injection pins ---------------- *)

(* Corrupting the TCR stage (an op's factors) must be blamed on tcr
   (BAR061), not on a later stage. *)
let test_tcr_corruption_is_bar061 () =
  let b, c, points = first_candidate matmul_src "mm" in
  let ir = c.Autotune.Tuner.v_ir in
  let op = List.hd ir.ops in
  let op' =
    { op with Tcr.Ir.factors = List.map (fun (n, d) -> (n, List.rev d)) op.factors }
  in
  let ir = { ir with Tcr.Ir.ops = [ op' ] } in
  let v =
    Check.Semantic.validate ~label:"mm" b.statements ~variant_ids:c.Autotune.Tuner.ids
      ~ir ~points
  in
  check_bool "not equivalent" false v.Check.Semantic.equivalent;
  check_bool "BAR061" true (has_code "BAR061" v.diags);
  Alcotest.(check (option string)) "failed at tcr" (Some "tcr") v.failed_stage

(* A recipe whose red_order is not a permutation aborts at the recipe
   stage (BAR064) rather than pretending equivalence. *)
let test_bad_red_order_aborts () =
  let b, c, points = first_candidate matmul_src "mm" in
  let points =
    List.map (fun (p : Tcr.Space.point) -> { p with Tcr.Space.red_order = [ "i" ] }) points
  in
  let v =
    Check.Semantic.validate ~label:"mm" b.statements ~variant_ids:c.Autotune.Tuner.ids
      ~ir:c.Autotune.Tuner.v_ir ~points
  in
  check_bool "not equivalent" false v.Check.Semantic.equivalent;
  check_bool "BAR064" true (has_code "BAR064" v.diags)

(* ---------------- mutation harness ---------------- *)

(* A Check.Mutate mutation, applied to every kernel of matmul and of the
   permuted-and-unrolled eqn1 candidate, is caught under its
   Mutate.expected_code: the BAR063 ones by translation validation at the
   kernel stage; the barrier hazard, which sequential interpretation finds
   semantically neutral (it materializes the whole tile), by the access
   analysis as an ERROR. *)
let test_mutation m () =
  let programs =
    [ ("mm", first_candidate matmul_src "mm"); ("eqn1", permuted_candidate ()) ]
  in
  List.iter
    (fun (label, ((b : Autotune.Tuner.benchmark), (c : Autotune.Tuner.variant_choice), points)) ->
      let name = Printf.sprintf "%s %s" label (Check.Mutate.name m) in
      let code = Check.Mutate.expected_code m in
      let mutated =
        List.map (Check.Mutate.apply m) (Codegen.Kernel.lower_program c.v_ir points)
      in
      check_bool (name ^ " applied") true (List.exists snd mutated);
      let v =
        Check.Semantic.validate
          ~mutate_kernel:(fun k -> fst (Check.Mutate.apply m k))
          ~label b.statements ~variant_ids:c.ids ~ir:c.v_ir ~points
      in
      (* the validator owns BAR06x; anything else is the access
         analysis's, on a mutation the validator must accept *)
      let neutral = not (String.starts_with ~prefix:"BAR06" code) in
      let diags =
        if neutral then List.concat_map (fun (k, _) -> Check.Access.errors k) mutated
        else v.diags
      in
      check_bool (name ^ " caught as " ^ code) true (has_code code diags);
      check_bool (name ^ " semantic verdict") neutral v.equivalent;
      if neutral then check_bool (name ^ " is error") true (Check.Diag.has_errors diags)
      else Alcotest.(check (option string)) (name ^ " stage") (Some "kernel") v.failed_stage)
    programs

(* ---------------- symbolic access analysis ---------------- *)

let mm_point_kernel ?(src = matmul_src) () =
  let _, c, points = first_candidate src "mm" in
  List.hd (Codegen.Kernel.lower_program c.Autotune.Tuner.v_ir points)

(* The clean matmul kernel: output ref first, exact and model coalescing
   agree (aligned 32-extent tiles keep every warp representative), and
   the error pass is empty. *)
let test_access_summary_clean () =
  let k = mm_point_kernel () in
  let s = Check.Access.summarize k in
  Alcotest.(check string) "kernel name" k.Codegen.Kernel.name s.Check.Access.kernel;
  (match s.refs with
  | out :: _ -> Alcotest.(check string) "output ref first" "C" out.Check.Access.name
  | [] -> Alcotest.fail "no refs");
  List.iter
    (fun (r : Check.Access.ref_summary) ->
      check_bool
        (Printf.sprintf "%s: exact %.2f within [1, 32]" r.name r.exact_transactions)
        true
        (r.exact_transactions >= 1.0 && r.exact_transactions <= 32.0);
      check_bool
        (Printf.sprintf "%s: model agrees with exact grid average" r.name)
        true
        (Float.abs (r.model_transactions -. r.exact_transactions)
        <= Check.Access.model_divergence_threshold))
    s.refs;
  check_int "smem matches kernel" (Codegen.Kernel.smem_bytes k) s.smem_bytes;
  check_int "no errors" 0 (List.length (Check.Access.errors k))

(* Under tx = i, bx = j the A[i k] tile keeps both dims (only j is
   block-fixed), so lane l reads element l * extent(k): every lane lands
   in the same 8-byte-word bank - a full 32-way conflict, reported
   exactly by BAR071. The B[k j] tile collapses to [k], invariant across
   lanes - a broadcast, degree 1. *)
let test_access_bank_conflict_pin () =
  let _, c, points = first_candidate matmul_src "mm" in
  let ir = c.Autotune.Tuner.v_ir in
  let p =
    { (List.hd points) with
      Tcr.Space.decomp = { Tcr.Space.tx = "i"; ty = None; bx = "j"; by = None } }
  in
  let k = Codegen.Kernel.lower ~name:"mm_GPU_1" ir (List.hd ir.Tcr.Ir.ops) p in
  let conflicted = Codegen.Kernel.stage_factor k "A" in
  let s = Check.Access.summarize conflicted in
  (match s.tiles with
  | [ t ] ->
    Alcotest.(check string) "staged array" "A" t.Check.Access.array;
    Alcotest.(check (list string)) "tile keeps both dims" [ "i"; "k" ] t.tile_dims;
    check_int "32-way conflict" 32 t.conflict_degree
  | _ -> Alcotest.fail "expected one tile");
  check_bool "BAR071 fires" true
    (has_code "BAR071" (Check.Access.lints Gpusim.Arch.gtx980 conflicted));
  let broadcast = Codegen.Kernel.stage_factor k "B" in
  (match (Check.Access.summarize broadcast).tiles with
  | [ t ] -> check_int "broadcast degree" 1 t.conflict_degree
  | _ -> Alcotest.fail "expected one tile")

(* A staged tile past the 48 KB budget is a BAR077 error even with lints
   off; the same shape under budget is clean. *)
let test_access_smem_budget () =
  let big = "dims: i=32 j=32 k=8192\nC[i j] = Sum([k], A[i k] * B[k j])" in
  let k = Codegen.Kernel.stage_factor (mm_point_kernel ~src:big ()) "A" in
  check_bool "over budget" true (Codegen.Kernel.smem_bytes k > Check.Access.max_smem_bytes);
  let ds = Check.Access.errors k in
  check_bool "BAR077" true (has_code "BAR077" ds);
  check_bool "is error" true (Check.Diag.has_errors ds);
  let small = Codegen.Kernel.stage_factor (mm_point_kernel ()) "A" in
  check_bool "under budget is clean" false
    (has_code "BAR077" (Check.Access.errors small))

(* ---------------- the tuner's semantic gate ---------------- *)

let tune_eqn1 ~semantic_gate () =
  let b = Autotune.Tuner.benchmark_of_dsl ~label:"eqn1" eqn1_src in
  let cfg = { Surf.Search.default_config with max_evals = 10 } in
  Autotune.Tuner.tune
    ~strategy:(Autotune.Tuner.Surf_search cfg)
    ~pool_per_variant:40 ~semantic_gate ~rng:(Util.Rng.create 42)
    ~arch:Gpusim.Arch.gtx980 b

(* Acceptance: the semantic gate validates the winner after the search
   with its own fixed seed, so a fixed-seed tune is bit-identical with the
   gate on or off. *)
let test_semantic_gate_bit_identical () =
  let on = tune_eqn1 ~semantic_gate:true () in
  let off = tune_eqn1 ~semantic_gate:false () in
  Alcotest.(check (list int)) "same winning variant" off.best.variant_ids
    on.best.variant_ids;
  Alcotest.(check (list string)) "same winning points"
    (List.map Tcr.Space.point_key off.best.points)
    (List.map Tcr.Space.point_key on.best.points);
  check_bool "same gflops" true (on.gflops = off.gflops);
  check_int "same evaluations" off.evaluations on.evaluations;
  (match on.semantic with
  | Some v ->
    check_bool "winner validated" true v.Check.Semantic.equivalent;
    check_int "all five stages digested" 5 (List.length v.stages)
  | None -> Alcotest.fail "gate on: expected a verdict");
  check_bool "gate off: no verdict" true (off.semantic = None)

(* Over the oracle budget the gate skips rather than stalls the tune. *)
let test_semantic_gate_budget_skip () =
  let b = Autotune.Tuner.benchmark_of_dsl ~label:"mm" matmul_src in
  check_bool "matmul under budget" true
    (Check.Semantic.cost b.statements <= Check.Semantic.gate_budget);
  let huge = Benchsuite.Suite.tce_ex ~n:16 () in
  check_bool "tce_ex over budget" true
    (Check.Semantic.cost huge.statements > Check.Semantic.gate_budget)

(* ---------------- journal + doctor plumbing ---------------- *)

let test_journal_semantic_ok () =
  let r, entries = Obs.Journal.collect (fun () -> tune_eqn1 ~semantic_gate:true ()) in
  match entries with
  | [ e ] -> (
    Alcotest.(check (option bool)) "entry records the verdict" (Some true)
      e.Obs.Journal.semantic_ok;
    check_bool "matches the result" true
      (e.Obs.Journal.semantic_ok
      = Option.map (fun (v : Check.Semantic.verdict) -> v.equivalent) r.semantic);
    (* codec roundtrip, both polarities *)
    List.iter
      (fun sem ->
        let e = { e with Obs.Journal.semantic_ok = sem } in
        match Obs.Journal.of_json (Obs.Journal.to_json e) with
        | Ok e' ->
          Alcotest.(check (option bool)) "semantic_ok roundtrips" sem
            e'.Obs.Journal.semantic_ok
        | Error msg -> Alcotest.failf "entry does not decode: %s" msg)
      [ Some true; Some false; None ];
    (* entries journaled before the field existed decode to None *)
    match Obs.Journal.to_json e with
    | Obs.Json.Obj fields -> (
      let legacy =
        Obs.Json.Obj (List.filter (fun (name, _) -> name <> "semantic_ok") fields)
      in
      match Obs.Journal.of_json legacy with
      | Ok e' ->
        Alcotest.(check (option bool)) "legacy decodes to None" None
          e'.Obs.Journal.semantic_ok
      | Error msg -> Alcotest.failf "legacy entry does not decode: %s" msg)
    | _ -> Alcotest.fail "journal entry did not serialize to an object")
  | es -> Alcotest.failf "expected one journal entry, got %d" (List.length es)

let test_doctor_dr050 () =
  let _, entries = Obs.Journal.collect (fun () -> tune_eqn1 ~semantic_gate:true ()) in
  let e = List.hd entries in
  let clean =
    Obs.Doctor.diagnose { Obs.Doctor.no_inputs with journal = [ e ] }
  in
  check_bool "validated run: no DR050" false
    (List.exists (fun (f : Obs.Doctor.finding) -> f.code = "DR050") clean.findings);
  let poisoned = { e with Obs.Journal.semantic_ok = Some false } in
  let rep =
    Obs.Doctor.diagnose { Obs.Doctor.no_inputs with journal = [ poisoned ] }
  in
  match
    List.find_opt (fun (f : Obs.Doctor.finding) -> f.code = "DR050") rep.findings
  with
  | None -> Alcotest.fail "expected a DR050 finding"
  | Some f ->
    check_bool "critical" true (f.severity = Obs.Doctor.Critical);
    check_bool "names the run's key" true (f.subject = poisoned.Obs.Journal.label);
    (match f.suspects with
    | (name, score) :: _ ->
      Alcotest.(check string) "top suspect" "semantic-failure" name;
      check_bool "certain" true (score = 1.0)
    | [] -> Alcotest.fail "no suspects");
    check_bool "report pages" true (Obs.Doctor.has_critical rep)

(* ---------------- qcheck property ---------------- *)

(* End-to-end soundness sweep: random tensor networks lowered through the
   real pipeline (greedy tree -> DSL -> variants -> TCR -> recipe ->
   kernel) validate across all five stages with no diagnostics. Small
   extents keep the naive oracle cheap. *)
let qcheck_random_networks_validate =
  QCheck.Test.make ~name:"random networks validate end to end" ~count:15
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let n = 3 + Util.Rng.int rng 3 in
      (* line networks only: a ring's rank-0 output has no indices to
         decompose, so its schedule space is empty by construction *)
      let net = Netopt.Gen.line ~extents:[ 2; 3; 4 ] ~n rng in
      let tree = Netopt.Greedy.optimize net in
      let src = Netopt.Lower.to_dsl net tree in
      let v = validate ~rounds:1 src "net" in
      v.Check.Semantic.equivalent && v.diags = [])

let test_mutation_names_roundtrip () =
  List.iter
    (fun m ->
      match Check.Mutate.of_name (Check.Mutate.name m) with
      | Some m' -> check_bool "roundtrip" true (m = m')
      | None -> Alcotest.fail "name did not round-trip")
    Check.Mutate.all

let suite =
  [
    Alcotest.test_case "matmul equivalent" `Quick test_matmul_equivalent;
    Alcotest.test_case "deterministic" `Quick test_validate_deterministic;
    Alcotest.test_case "eqn1 all variants" `Slow test_eqn1_all_variants;
    Alcotest.test_case "permuted schedule equivalent" `Quick test_permuted_schedule_equivalent;
    Alcotest.test_case "tcr corruption is BAR061" `Quick test_tcr_corruption_is_bar061;
    Alcotest.test_case "bad red_order aborts" `Quick test_bad_red_order_aborts;
  ]
  @ List.map
      (fun m ->
        Alcotest.test_case ("mutation: " ^ Check.Mutate.name m) `Quick (test_mutation m))
      Check.Mutate.all
  @ [
    Alcotest.test_case "mutation names roundtrip" `Quick test_mutation_names_roundtrip;
    Alcotest.test_case "access: clean summary" `Quick test_access_summary_clean;
    Alcotest.test_case "access: bank-conflict pin" `Quick test_access_bank_conflict_pin;
    Alcotest.test_case "access: smem budget" `Quick test_access_smem_budget;
    Alcotest.test_case "gate: fixed-seed tune bit-identical on/off" `Quick
      test_semantic_gate_bit_identical;
    Alcotest.test_case "gate: oracle budget" `Quick test_semantic_gate_budget_skip;
    Alcotest.test_case "journal: semantic_ok codec and legacy decode" `Quick
      test_journal_semantic_ok;
    Alcotest.test_case "doctor: DR050 on a failed winner" `Quick test_doctor_dr050;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ qcheck_random_networks_validate ]
