(* Device-level simulation of a tuned TCR program: functional execution of
   the kernel IR on host arrays (bit-exact what the emitted CUDA computes)
   plus the analytic time estimate.

   [measure] is what the autotuner calls: it skips functional execution
   (variants are validated separately by the test-suite) and returns the
   deterministic simulated time of one program evaluation, including kernel
   launches, with transfers reported separately. A structural-hash noise of
   up to +/-2% models codegen and run-to-run variation, so that equal-flop
   variants differ slightly, as the paper observes (Section II-B). *)

type report = {
  arch : Arch.t;
  kernels : Perf.kernel_report list;
  transfer : Transfer.t;
  kernel_time_s : float;   (* sum of kernel times, one evaluation *)
  flops : int;
}

let noise_amplitude = 0.03

(* Deterministic pseudo-noise in [-1, 1] from a structural key. *)
let noise_of_key key =
  let h = Hashtbl.hash key in
  let u = float_of_int (h land 0xFFFFF) /. float_of_int 0xFFFFF in
  (2.0 *. u) -. 1.0

let kernel_key (arch : Arch.t) (k : Codegen.Kernel.t) =
  (arch.name, k.name, k.decomp, List.map (fun (l : Codegen.Kernel.loop) -> (l.index, l.unroll)) k.thread_loops)

let measure_kernel (arch : Arch.t) (k : Codegen.Kernel.t) =
  let r = Perf.analyze_kernel arch k in
  let factor = 1.0 +. (noise_amplitude *. noise_of_key (kernel_key arch k)) in
  { r with time_s = r.time_s *. factor }

let measure ?scalar_replace (arch : Arch.t) (ir : Tcr.Ir.t) (points : Tcr.Space.point list) =
  let kernels = Codegen.Kernel.lower_program ?scalar_replace ir points in
  let reports = List.map (measure_kernel arch) kernels in
  {
    arch;
    kernels = reports;
    transfer = Transfer.analyze arch ir;
    kernel_time_s = List.fold_left (fun acc r -> acc +. r.Perf.time_s) 0.0 reports;
    flops = List.fold_left (fun acc r -> acc + r.Perf.flops) 0 reports;
  }

(* Time of [reps] evaluations with device-resident data: transfers happen
   once, kernels run every repetition (the paper's measurement loop). *)
let time_with_reps report ~reps =
  report.transfer.Transfer.time_s
  +. (float_of_int reps *. report.kernel_time_s)

(* Average time of one evaluation under [reps]-fold amortized transfers. *)
let amortized_time report ~reps =
  time_with_reps report ~reps /. float_of_int reps

let gflops report ~reps =
  float_of_int report.flops /. amortized_time report ~reps /. 1e9

(* Concurrent-kernel (streams) timing: statements with no dependence path
   between them (same wave of the inter-statement DAG) launch together, so
   a wave pays one launch latency while the bodies still share the chip
   (work conservation: body times add). An extension experiment for the
   paper's Section VIII "surrounding computations" direction. *)
let measure_streams ?scalar_replace (arch : Arch.t) (ir : Tcr.Ir.t)
    (points : Tcr.Space.point list) =
  let kernels = Codegen.Kernel.lower_program ?scalar_replace ir points in
  let reports = List.map (measure_kernel arch) kernels in
  let graph = Tcr.Depgraph.build ir in
  let level = Tcr.Depgraph.levels graph in
  let max_level = Array.fold_left max 0 level in
  let wave_time w =
    let members =
      List.filteri (fun i _ -> level.(i) = w) reports
    in
    let launch =
      List.fold_left (fun acc (r : Perf.kernel_report) -> max acc r.t_launch) 0.0 members
    in
    let bodies =
      List.fold_left
        (fun acc (r : Perf.kernel_report) -> acc +. (r.time_s -. r.t_launch))
        0.0 members
    in
    launch +. bodies
  in
  let kernel_time_s =
    List.fold_left ( +. ) 0.0 (List.init (max_level + 1) wave_time)
  in
  {
    arch;
    kernels = reports;
    transfer = Transfer.analyze arch ir;
    kernel_time_s;
    flops = List.fold_left (fun acc (r : Perf.kernel_report) -> acc + r.Perf.flops) 0 reports;
  }
