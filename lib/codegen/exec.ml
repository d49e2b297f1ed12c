(* The one interpreter of the kernel IR.

   Executes the same structure the CUDA emitter prints - grid and block
   loops, the unrolled main loop plus epilogue (an unroll below 1 runs as
   1), the scalar-replaced output and shared-memory staging (a tile whose
   guard admits no thread is never loaded and reads as zero) - over two
   scalars: floats ([run_kernel], which the test-suite checks against the
   einsum oracle) and integers under caller-given add/mul
   ([run_kernel_int], which translation validation runs over F_p).

   Addresses are formed from the kernel's OWN extents table and
   bounds-checked against the real allocation, so a corrupted stride table
   shows up as wrong values or [Out_of_bounds] instead of being normalized
   away. Everything integer - slot layout, stride compilation, bounds
   checks, tile decode, the loop walk - is compiled once per kernel and
   shared; each scalar keeps its own monomorphic multiply-accumulate, since
   an abstract scalar would make every add/mul an indirect call and box
   every float. *)

exception Out_of_bounds of string

type env = (string * Tensor.Dense.t) list

let find env name =
  match List.assoc_opt name env with
  | Some t -> t
  | None -> invalid_arg (Printf.sprintf "Exec: unbound tensor %s" name)

(* An array reference compiled against the slot layout: its linear offset
   is the dot product of [strides] with the slot values, checked against
   the [len] elements of the array it reads. *)
type ref_code = { kernel : string; name : string; len : int; strides : int array }

let offset r (vals : int array) =
  let off = ref 0 in
  for s = 0 to Array.length vals - 1 do
    off := !off + (r.strides.(s) * vals.(s))
  done;
  if !off < 0 || !off >= r.len then
    raise
      (Out_of_bounds
         (Printf.sprintf "kernel %s accesses %s at linear offset %d outside its %d elements"
            r.kernel r.name !off r.len));
  !off

(* A shared tile for a staged factor, refreshed once per block by the
   decode the CUDA cooperative load performs: tile element [t] is split
   row-major into tile coordinates, and each dim of the source reference
   reads either a tile coordinate or (block-fixed) its slot. The barrier
   and its placement have no effect under sequential interpretation -
   barrier-under-divergence is a hazard the access analysis proves absent,
   not a value change. *)
type tile_code = {
  array : string;                (* the staged array *)
  len : int;                     (* its elements *)
  t_exts : int array;            (* tile dim extents, row-major *)
  t_coords : (int * int) array;  (* per tile-varying source dim: tile coord, stride *)
  t_fixed : (int * int) array;   (* per block-fixed source dim: slot, stride *)
  loaded : bool;                 (* false under a non-positive guard *)
}

(* A kernel compiled against its slot layout and bound to the arrays of
   one environment. Only the element type differs between scalars. *)
type 'a code = {
  vals : int array;                      (* current value of every slot *)
  out : ref_code;
  out_data : 'a array;
  factors : ref_code array;
  factor_data : 'a array array;          (* the global array or the tile read *)
  tiles : (tile_code * 'a array * 'a array) array;  (* decode, source, tile *)
  parallel : (int * int) array;          (* parallel serial loops: slot, extent *)
  reductions : (int * int * int) array;  (* slot, unroll, extent *)
  grid : (int * int) * (int option * int);   (* bx slot, extent; by slot, extent *)
  block : (int * int) * (int option * int);  (* tx slot, extent; ty slot, extent *)
}

let compile (k : Kernel.t) ~(data : string -> 'a array) ~(zero : 'a) : 'a code =
  let d = k.decomp in
  (* slot layout: tx, bx, [ty], [by], serial loops *)
  let names = Array.of_list (Kernel.mapped_indices k @ Kernel.serial_indices k) in
  let slot name =
    match Array.find_index (String.equal name) names with
    | Some s -> s
    | None ->
      invalid_arg
        (Printf.sprintf
           "Exec: kernel %s: index %s has no slot in the kernel's layout \
            (decomposition indices followed by serial loops)"
           k.name name)
  in
  let compile_ref name dims strides len =
    let s = Array.make (Array.length names) 0 in
    List.iter2 (fun dim st -> s.(slot dim) <- s.(slot dim) + st) dims strides;
    { kernel = k.name; name; len; strides = s }
  in
  let global (name, dims) =
    compile_ref name dims (Kernel.strides k dims) (Array.length (data name))
  in
  let staging = Array.of_list k.staging in
  let tiles =
    Array.map
      (fun (s : Kernel.staging) ->
        let dims =
          match List.assoc_opt s.array k.arrays with
          | Some dims -> dims
          | None ->
            invalid_arg (Printf.sprintf "Exec: kernel %s stages unknown array %s" k.name s.array)
        in
        let terms = List.combine dims (Kernel.strides k dims) in
        let coord dim = List.find_index (String.equal dim) s.tile_dims in
        ( {
            array = s.array;
            len = Array.length (data s.array);
            t_exts = Array.of_list (List.map (Kernel.extent k) s.tile_dims);
            t_coords =
              Array.of_list
                (List.filter_map
                   (fun (dim, st) -> Option.map (fun j -> (j, st)) (coord dim))
                   terms);
            t_fixed =
              Array.of_list
                (List.filter_map
                   (fun (dim, st) -> if coord dim = None then Some (slot dim, st) else None)
                   terms);
            loaded = (match s.guard with Some g -> g > 0 | None -> true);
          },
          data s.array,
          Array.make (Kernel.tile_elements k s) zero ))
      staging
  in
  (* a staged factor reads its tile with row-major tile strides; the
     block-fixed dims were absorbed by the per-block refresh *)
  let factors =
    List.map
      (fun (name, dims) ->
        match Array.find_index (fun (s : Kernel.staging) -> s.array = name) staging with
        | Some i ->
          let s = staging.(i) and _, _, tile = tiles.(i) in
          ( compile_ref (name ^ "_tile") s.tile_dims (Kernel.strides k s.tile_dims)
              (Array.length tile),
            tile )
        | None -> (global (name, dims), data name))
      k.op.factors
  in
  (* parallel serial loops outside (distinct output elements), reductions
     inside, accumulated into the scalar *)
  let parallel, reductions =
    List.partition (fun (l : Kernel.loop) -> l.parallel) k.thread_loops
  in
  {
    vals = Array.make (Array.length names) 0;
    out = global (k.op.out, k.op.out_indices);
    out_data = data k.op.out;
    factors = Array.of_list (List.map fst factors);
    factor_data = Array.of_list (List.map snd factors);
    tiles;
    parallel = Array.of_list (List.map (fun (l : Kernel.loop) -> (slot l.index, l.extent)) parallel);
    reductions =
      Array.of_list
        (List.map (fun (l : Kernel.loop) -> (slot l.index, max 1 l.unroll, l.extent)) reductions);
    grid = ((slot d.bx, fst k.grid), (Option.map slot d.by, snd k.grid));
    block = ((slot d.tx, fst k.block), (Option.map slot d.ty, snd k.block));
  }

(* Walk the grid: refresh the tiles once per block, then call [element off]
   once per output element, at its output offset [off]. *)
let walk c ~element =
  let vals = c.vals in
  let refresh (tc, src, tile) =
    if tc.loaded then begin
      let base = Array.fold_left (fun acc (s, st) -> acc + (st * vals.(s))) 0 tc.t_fixed in
      let m = Array.length tc.t_exts in
      let coords = Array.make m 0 in
      for t = 0 to Array.length tile - 1 do
        let rem = ref t in
        for j = m - 1 downto 0 do
          coords.(j) <- !rem mod tc.t_exts.(j);
          rem := !rem / tc.t_exts.(j)
        done;
        let off = Array.fold_left (fun acc (j, st) -> acc + (st * coords.(j))) base tc.t_coords in
        if off < 0 || off >= tc.len then
          raise
            (Out_of_bounds
               (Printf.sprintf "kernel %s stages %s from linear offset %d outside its %d elements"
                  c.out.kernel tc.array off tc.len));
        tile.(t) <- src.(off)
      done
    end
  in
  let np = Array.length c.parallel in
  let rec run_parallel i =
    if i = np then element (offset c.out vals)
    else begin
      let s, e = c.parallel.(i) in
      for v = 0 to e - 1 do
        vals.(s) <- v;
        run_parallel (i + 1)
      done
    end
  in
  let set slot v = Option.iter (fun s -> vals.(s) <- v) slot in
  let (bx_s, bx_e), (by_s, by_e) = c.grid and (tx_s, tx_e), (ty_s, ty_e) = c.block in
  for by = 0 to by_e - 1 do
    set by_s by;
    for bx = 0 to bx_e - 1 do
      vals.(bx_s) <- bx;
      Array.iter refresh c.tiles;
      for ty = 0 to ty_e - 1 do
        set ty_s ty;
        for tx = 0 to tx_e - 1 do
          vals.(tx_s) <- tx;
          run_parallel 0
        done
      done
    done
  done

(* The reduction nest of one output element: each loop runs its unrolled
   main loop, then the epilogue, and [mac ()] accumulates one point. *)
let reduce c mac =
  let vals = c.vals and red = c.reductions in
  let n = Array.length red in
  let rec go r =
    if r = n then mac ()
    else begin
      let s, u, e = red.(r) in
      let i = ref 0 in
      while !i + u <= e do
        for j = 0 to u - 1 do
          vals.(s) <- !i + j;
          go (r + 1)
        done;
        i := !i + u
      done;
      while !i < e do
        vals.(s) <- !i;
        go (r + 1);
        incr i
      done
    end
  in
  go 0

(* Run one kernel over its grid in floats, accumulating into the output as
   the generated CUDA does: scalar replacement loads the output into the
   register first; the ablation form adds the sum to it at the end. *)
let run_kernel (k : Kernel.t) (env : env) =
  List.iter
    (fun (name, dims) ->
      if Tensor.Dense.shape (find env name) <> Array.of_list (List.map (Kernel.extent k) dims)
      then invalid_arg (Printf.sprintf "Exec: shape of %s disagrees with kernel %s" name k.name))
    k.arrays;
  let c = compile k ~data:(fun name -> Tensor.Dense.data (find env name)) ~zero:0.0 in
  let out = c.out_data and data = c.factor_data and refs = c.factors and vals = c.vals in
  let acc = [| 0.0 |] in
  let mac () =
    let p = ref 1.0 in
    for f = 0 to Array.length refs - 1 do
      p := !p *. data.(f).(offset refs.(f) vals)
    done;
    acc.(0) <- acc.(0) +. !p
  in
  walk c ~element:(fun off ->
      let saved = out.(off) in
      acc.(0) <- (if k.scalar_replaced then saved else 0.0);
      reduce c mac;
      out.(off) <- (if k.scalar_replaced then acc.(0) else saved +. acc.(0)))

(* The same interpretation over integers under [add]/[mul]. *)
let run_kernel_int ~add ~mul (env : (string * int array) list) (k : Kernel.t) =
  let c = compile k ~data:(find env) ~zero:0 in
  let out = c.out_data and data = c.factor_data and refs = c.factors and vals = c.vals in
  let acc = ref 0 in
  let mac () =
    let p = ref 1 in
    for f = 0 to Array.length refs - 1 do
      p := mul !p data.(f).(offset refs.(f) vals)
    done;
    acc := add !acc !p
  in
  walk c ~element:(fun off ->
      let saved = out.(off) in
      acc := if k.scalar_replaced then saved else 0;
      reduce c mac;
      out.(off) <- (if k.scalar_replaced then !acc else add saved !acc))

(* Non-input variables of a program with their dims, in declaration
   order. *)
let produced (ir : Tcr.Ir.t) =
  List.filter_map
    (fun (v : Tcr.Ir.var) -> if v.role = Tcr.Ir.Input then None else Some (v.name, v.dims))
    ir.vars

(* Extend [env], in order, with a fresh [alloc dims] for each produced
   (name, dims) not bound yet. *)
let with_produced alloc env produced =
  List.fold_left
    (fun env (name, dims) ->
      if List.mem_assoc name env then env else env @ [ (name, alloc dims) ])
    env produced

(* Allocate zeroed temporaries and outputs for a program. *)
let allocate_produced (ir : Tcr.Ir.t) (inputs : env) : env =
  with_produced
    (fun dims -> Tensor.Dense.create (Array.of_list (List.map (Tcr.Ir.extent ir) dims)))
    inputs (produced ir)

(* Run a whole program: lower each op under its point and execute the
   kernels in sequence (data stays "device-resident" in [env]). Returns the
   extended environment; the output tensor is found under its name. *)
let run_program ?scalar_replace (ir : Tcr.Ir.t) (points : Tcr.Space.point list) (inputs : env) : env =
  let env = allocate_produced ir inputs in
  let kernels = Kernel.lower_program ?scalar_replace ir points in
  List.iter (fun k -> run_kernel k env) kernels;
  env

(* Reference evaluation of a TCR program using the einsum oracle, for
   validation: ops are evaluated in order, accumulating when several ops
   target the same tensor. *)
let run_reference (ir : Tcr.Ir.t) (inputs : env) : env =
  let env = allocate_produced ir inputs in
  List.iter
    (fun (op : Tcr.Ir.op) ->
      let operands =
        List.map (fun (name, idx) -> Tensor.Einsum.operand (find env name) idx) op.factors
      in
      let value = Tensor.Einsum.contract ~output_indices:op.out_indices operands in
      let dest = find env op.out in
      let sum = Tensor.Dense.add dest value in
      Array.blit (Tensor.Dense.data sum) 0 (Tensor.Dense.data dest) 0
        (Tensor.Dense.num_elements dest))
    ir.ops;
  env
