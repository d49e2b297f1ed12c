(* Trace-driven cross-check of the analytic memory model.

   Generates the actual address stream one thread block issues for a given
   array reference - iterating the serial loops in kernel order and the
   block's lanes in warp order, exactly as the interpreter executes - and
   replays it through an LRU cache of the architecture's L1 geometry. The
   test-suite compares the measured hit rate against [Perf]'s analytic
   classification (footprint-resident references must show high reuse; the
   streamed output must show none). *)

let line_bytes = 128

(* Address (in bytes) of one reference for given lane/serial values. *)
let address (k : Codegen.Kernel.t) dims ~tx ~ty ~serial_vals =
  let d = k.decomp in
  let value idx =
    if idx = d.tx then tx
    else if Some idx = d.ty then ty
    else if idx = d.bx then 0
    else if Some idx = d.by then 0
    else
      match List.assoc_opt idx serial_vals with
      | Some v -> v
      | None -> invalid_arg (Printf.sprintf "Simtrace.address: no value for %s" idx)
  in
  8
  * List.fold_left2
      (fun acc idx s -> acc + (value idx * s))
      0 dims (Codegen.Kernel.strides k dims)

(* Replay one block's accesses to [dims] through [cache]. The reference is
   loaded once per iteration of the serial loops it depends on (and all
   outer ones), per thread - mirroring [Coalesce.loads_per_thread]. *)
let replay_block ?(max_accesses = 2_000_000) (k : Codegen.Kernel.t) dims cache =
  let tx_e, ty_e = k.block in
  (* serial loops down to the deepest one the reference depends on *)
  let depth_max =
    List.fold_left
      (fun acc (i, (l : Codegen.Kernel.loop)) -> if List.mem l.index dims then i else acc)
      (-1)
      (List.mapi (fun i l -> (i, l)) k.thread_loops)
  in
  let loops = List.filteri (fun i _ -> i <= depth_max) k.thread_loops in
  let budget = ref max_accesses in
  let rec iterate env = function
    | [] ->
      (* one warp-wide load: lanes in x-fastest order *)
      if !budget > 0 then
        for ty = 0 to ty_e - 1 do
          for tx = 0 to tx_e - 1 do
            if !budget > 0 then begin
              decr budget;
              ignore (Cache.access cache (address k dims ~tx ~ty ~serial_vals:env))
            end
          done
        done
    | (l : Codegen.Kernel.loop) :: rest ->
      for i = 0 to l.extent - 1 do
        iterate ((l.index, i) :: env) rest
      done
  in
  iterate [] loops

(* Measured L1 hit rate of one reference over a block's execution. *)
let block_hit_rate ?(ways = 8) (arch : Arch.t) (k : Codegen.Kernel.t) (name, dims) =
  ignore name;
  let cache = Cache.create ~bytes:arch.l1_bytes ~line_bytes ~ways in
  replay_block k dims cache;
  Cache.hit_rate cache

(* Bytes one block actually moves past the L1 for this reference. *)
let block_miss_bytes ?(ways = 8) (arch : Arch.t) (k : Codegen.Kernel.t) (name, dims) =
  ignore name;
  let cache = Cache.create ~bytes:arch.l1_bytes ~line_bytes ~ways in
  replay_block k dims cache;
  Cache.miss_bytes cache
