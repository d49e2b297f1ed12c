(* Layer 3: resource analysis of an emitted kernel against a target
   architecture.

   The central proof is out-of-bounds freedom: for every array the kernel
   references, the maximum linearized offset any thread can form -
   [sum over dims of stride * (iteration range - 1)], with each index's
   range read off the kernel's own grid/block/loop structure - must stay
   below the allocated element count. Alongside it: the register file must
   hold at least one block, and grid/block dimensions must respect the
   device limits. Quality lints (uncoalesced loads, low occupancy, partial
   warps, an undersized grid) are warnings: legal, but worth flagging. *)

(* Iteration range of index [i] as the kernel actually drives it: the
   block/grid dimension when mapped, the loop extent when serial, the
   maximum of both in malformed kernels, 1 when never driven. *)
let index_range (k : Codegen.Kernel.t) i =
  let d = k.decomp in
  let r = ref 1 in
  let bump v = r := max !r v in
  if d.tx = i then bump (fst k.block);
  (match d.ty with Some ty when ty = i -> bump (snd k.block) | _ -> ());
  if d.bx = i then bump (fst k.grid);
  (match d.by with Some by when by = i -> bump (snd k.grid) | _ -> ());
  List.iter
    (fun (l : Codegen.Kernel.loop) -> if l.index = i then bump l.extent)
    k.thread_loops;
  !r

(* BAR030: symbolic in-bounds proof per referenced array. *)
let check_bounds (k : Codegen.Kernel.t) =
  List.concat_map
    (fun (name, dims) ->
      let extents =
        List.map (fun i -> (i, List.assoc_opt i k.extents)) dims
      in
      if List.exists (fun (_, e) -> e = None) extents then
        List.filter_map
          (fun (i, e) ->
            if e = None then
              Some
                (Diag.error Diag.Kernel ~code:"BAR030" ~site:k.name
                   "cannot bound offsets of %s: dimension %s has no extent" name i)
            else None)
          extents
      else begin
        let exts = List.map (fun (_, e) -> Option.get e) extents in
        let size = List.fold_left ( * ) 1 exts in
        let max_offset =
          List.fold_left2
            (fun acc idx stride -> acc + (stride * (index_range k idx - 1)))
            0 dims (Codegen.Kernel.strides k dims)
        in
        if max_offset >= size then
          [
            Diag.error Diag.Kernel ~code:"BAR030" ~site:k.name
              "out of bounds: max linearized offset %d of %s reaches past its %d \
               elements"
              max_offset name size;
          ]
        else []
      end)
    k.arrays

(* BAR031: at least one block must fit the SM's register file. *)
let check_registers (arch : Gpusim.Arch.t) (k : Codegen.Kernel.t) =
  let regs = Gpusim.Occupancy.regs_per_thread k in
  let tpb = Codegen.Kernel.threads_per_block k in
  if regs * tpb > arch.regs_per_sm then
    [
      Diag.error Diag.Kernel ~code:"BAR031" ~site:k.name
        "register demand %d regs/thread x %d threads = %d exceeds the %d-register \
         file of one %s SM"
        regs tpb (regs * tpb) arch.regs_per_sm arch.codename;
    ]
  else []

(* Fermi's grid.x is 16-bit; Kepler onwards it is 31-bit. grid.y stays
   16-bit on every simulated device. *)
let max_grid_x (arch : Gpusim.Arch.t) =
  if arch.codename = "Fermi" then 65535 else 0x7FFFFFFF

let max_grid_y _arch = 65535

(* BAR032/BAR033/BAR034: launch-dimension limits. *)
let check_dims (arch : Gpusim.Arch.t) (k : Codegen.Kernel.t) =
  let gx, gy = k.grid and bx, by = k.block in
  let nonpos =
    List.filter_map
      (fun (what, v) ->
        if v < 1 then
          Some
            (Diag.error Diag.Kernel ~code:"BAR034" ~site:k.name
               "%s dimension %d is not positive" what v)
        else None)
      [ ("grid x", gx); ("grid y", gy); ("block x", bx); ("block y", by) ]
  in
  let tpb = Codegen.Kernel.threads_per_block k in
  let block =
    if tpb > arch.max_threads_per_block then
      [
        Diag.error Diag.Kernel ~code:"BAR032" ~site:k.name
          "block of %dx%d = %d threads exceeds %s's limit of %d" bx by tpb arch.name
          arch.max_threads_per_block;
      ]
    else []
  in
  let grid =
    (if gx > max_grid_x arch then
       [
         Diag.error Diag.Kernel ~code:"BAR033" ~site:k.name
           "grid x dimension %d exceeds %s's limit of %d" gx arch.name (max_grid_x arch);
       ]
     else [])
    @
    if gy > max_grid_y arch then
      [
        Diag.error Diag.Kernel ~code:"BAR033" ~site:k.name
          "grid y dimension %d exceeds %s's limit of %d" gy arch.name (max_grid_y arch);
      ]
    else []
  in
  nonpos @ block @ grid

(* Errors always - including the access analysis's BAR072 (barrier under
   divergence) and BAR077 (shared memory over budget); [~lints:false]
   skips the warning-level analyses (the tuner's gate only needs the
   errors). The old heuristic BAR040-043 lints are superseded by the
   exact BAR07x facts of [Access]. *)
let check ?(lints = true) (arch : Gpusim.Arch.t) (k : Codegen.Kernel.t) =
  check_bounds k @ check_registers arch k @ check_dims arch k @ Access.errors k
  @ (if lints then Access.lints arch k else [])
