(* CUDA C emitter: prints the kernel IR in the style of Figure 2(d), plus a
   host wrapper that allocates device memory, copies inputs once, launches
   the kernel sequence with data resident on the GPU, and copies the output
   back. *)

let buf_add = Buffer.add_string

(* C expression for the linear (row-major) offset of an array reference.
   Index variables are tx/ty/bx/by or serial loop variables; [subst]
   rewrites a loop variable, used to print unrolled bodies as "(n + 2)". *)
let offset_expr (k : Kernel.t) ?(subst = fun v -> v) (dims : string list) =
  let strides = Kernel.strides k dims in
  let var_of idx =
    let d = k.decomp in
    if idx = d.tx then "tx"
    else if Some idx = d.ty then "ty"
    else if idx = d.bx then "bx"
    else if Some idx = d.by then "by"
    else subst idx
  in
  let terms =
    List.map2
      (fun idx stride ->
        let v = var_of idx in
        if stride = 1 then v else Printf.sprintf "%s * %d" v stride)
      dims strides
  in
  String.concat " + " terms

let param_list (k : Kernel.t) =
  String.concat ", " (List.map (fun (name, _) -> "double *" ^ name) k.arrays)

(* The multiply-accumulate statement with loop-variable substitution.
   Staged factors read their shared tile (offsets over the tile dims only;
   the block-fixed dims were absorbed by the cooperative load). *)
let body_stmt (k : Kernel.t) acc_var subst =
  let factors =
    List.map
      (fun (name, dims) ->
        match Kernel.staging_of k name with
        | Some s -> Printf.sprintf "%s_tile[%s]" name (offset_expr k ~subst s.tile_dims)
        | None -> Printf.sprintf "%s[%s]" name (offset_expr k ~subst dims))
      k.op.factors
  in
  Printf.sprintf "%s = %s + %s;" acc_var acc_var (String.concat " * " factors)

(* Global offset of tile element [lt] of a staged factor: tile dims decoded
   from lt (row-major), block-fixed dims taken from the block indices. *)
let tile_load_offset (k : Kernel.t) (s : Kernel.staging) =
  let dims = List.assoc s.array k.arrays in
  let strides = Kernel.strides k dims in
  let tile_exts = List.map (Kernel.extent k) s.tile_dims in
  let divs = Kernel.strides k s.tile_dims in
  let coord idx =
    let rec pos j = function
      | [] -> invalid_arg "Cuda.tile_load_offset"
      | d :: rest -> if d = idx then j else pos (j + 1) rest
    in
    let j = pos 0 s.tile_dims in
    let div = List.nth divs j and ext = List.nth tile_exts j in
    if div = 1 then Printf.sprintf "(lt %% %d)" ext
    else Printf.sprintf "((lt / %d) %% %d)" div ext
  in
  let d = k.decomp in
  let terms =
    List.map2
      (fun idx stride ->
        let v =
          if List.mem idx s.tile_dims then coord idx
          else if idx = d.bx then "bx"
          else if Some idx = d.by then "by"
          else idx
        in
        if stride = 1 then v else Printf.sprintf "%s * %d" v stride)
      dims strides
  in
  String.concat " + " terms

(* Cooperative load of every staged tile, then the barrier. A guard
   restricts the load to threads with tx < n; with [barrier_inside_guard]
   the __syncthreads() is printed inside that conditional - the classic
   barrier-under-divergence bug the access analysis flags as BAR072. *)
let emit_staging line (k : Kernel.t) =
  let tpb = Kernel.threads_per_block k in
  let bx_threads = fst k.block in
  List.iter
    (fun (s : Kernel.staging) ->
      line 2
        (Printf.sprintf "__shared__ double %s_tile[%d];" s.array (Kernel.tile_elements k s)))
    k.staging;
  if k.staging <> [] then line 2 "int lt;";
  List.iter
    (fun (s : Kernel.staging) ->
      let elems = Kernel.tile_elements k s in
      (* participating threads: tx < g when guarded (all ty rows), so the
         cooperative load strides by its own population and still covers
         every tile element - a guard narrows the loaders, never the tile *)
      let g = match s.guard with None -> bx_threads | Some g -> min g bx_threads in
      let loaders = max 1 (g * (tpb / bx_threads)) in
      let lt0 = if k.decomp.ty = None then "tx" else Printf.sprintf "tx + %d * ty" g in
      let load indent =
        line indent
          (Printf.sprintf "for (lt = %s; lt < %d; lt += %d) {" lt0 elems loaders);
        line (indent + 2)
          (Printf.sprintf "%s_tile[lt] = %s[%s];" s.array s.array (tile_load_offset k s));
        line indent "}"
      in
      match s.guard with
      | None ->
        load 2;
        line 2 "__syncthreads();"
      | Some g ->
        line 2 (Printf.sprintf "if (tx < %d) {" g);
        load 4;
        if s.barrier_inside_guard then line 4 "__syncthreads();";
        line 2 "}";
        if not s.barrier_inside_guard then line 2 "__syncthreads();")
    k.staging

let emit_kernel (k : Kernel.t) =
  let b = Buffer.create 1024 in
  let line indent s = buf_add b (String.make indent ' ' ^ s ^ "\n") in
  line 0 (Printf.sprintf "__global__ void %s(%s)" k.name (param_list k));
  line 0 "{";
  let d = k.decomp in
  line 2 "int tx = threadIdx.x;";
  if d.ty <> None then line 2 "int ty = threadIdx.y;";
  line 2 "int bx = blockIdx.x;";
  if d.by <> None then line 2 "int by = blockIdx.y;";
  let parallel_loops, reduction_loops =
    List.partition (fun (l : Kernel.loop) -> l.parallel) k.thread_loops
  in
  List.iter
    (fun (l : Kernel.loop) -> line 2 (Printf.sprintf "int %s;" l.index))
    k.thread_loops;
  if k.scalar_replaced then line 2 "double nv;";
  emit_staging line k;
  let out_expr = Printf.sprintf "%s[%s]" k.op.out (offset_expr k k.op.out_indices) in
  let identity v = v in
  (* reduction loops: each may be unrolled (main loop + epilogue), with the
     substitutions composing across nesting levels *)
  let rec emit_reductions indent acc subst = function
    | [] -> line indent (body_stmt k acc subst)
    | (l : Kernel.loop) :: rest ->
      if l.unroll <= 1 then begin
        line indent
          (Printf.sprintf "for (%s = 0; %s < %d; %s++) {" l.index l.index l.extent l.index);
        emit_reductions (indent + 2) acc subst rest;
        line indent "}"
      end
      else begin
        let u = l.unroll and e = l.extent in
        let main = e - (e mod u) in
        if main > 0 then begin
          line indent
            (Printf.sprintf "for (%s = 0; %s <= %d; %s += %d) {" l.index l.index (main - u)
               l.index u);
          for j = 0 to u - 1 do
            let subst' v =
              if v = l.index then
                if j = 0 then l.index else Printf.sprintf "(%s + %d)" l.index j
              else subst v
            in
            emit_reductions (indent + 2) acc subst' rest
          done;
          line indent "}"
        end;
        for i = main to e - 1 do
          let subst' v = if v = l.index then string_of_int i else subst v in
          emit_reductions indent acc subst' rest
        done
      end
  in
  (* serial parallel loops enclose one scalar-replaced output element each *)
  let rec emit_parallel indent = function
    | [] ->
      if k.scalar_replaced then begin
        line indent (Printf.sprintf "nv = %s;" out_expr);
        emit_reductions indent "nv" identity reduction_loops;
        line indent (Printf.sprintf "%s = nv;" out_expr)
      end
      else
        (* ablation form: accumulate straight into global memory *)
        emit_reductions indent out_expr identity reduction_loops
    | (l : Kernel.loop) :: rest ->
      line indent
        (Printf.sprintf "for (%s = 0; %s < %d; %s++) {" l.index l.index l.extent l.index);
      emit_parallel (indent + 2) rest;
      line indent "}"
  in
  emit_parallel 2 parallel_loops;
  line 0 "}";
  Buffer.contents b

(* Host-side driver: allocation, transfers, launches. *)
let emit_host (ir : Tcr.Ir.t) (kernels : Kernel.t list) =
  let b = Buffer.create 2048 in
  let line indent s = buf_add b (String.make indent ' ' ^ s ^ "\n") in
  let elems name = Tensor.Shape.num_elements (Tcr.Ir.var_shape ir name) in
  line 0
    (Printf.sprintf "void %s_run(%s)" ir.label
       (String.concat ", "
          (List.map
             (fun (v : Tcr.Ir.var) -> "double *" ^ v.name ^ "_h")
             (Tcr.Ir.inputs ir @ Tcr.Ir.outputs ir))));
  line 0 "{";
  List.iter
    (fun (v : Tcr.Ir.var) ->
      line 2 (Printf.sprintf "double *%s;" v.name);
      line 2
        (Printf.sprintf "cudaMalloc((void **)&%s, %d * sizeof(double));" v.name
           (elems v.name)))
    ir.vars;
  List.iter
    (fun (v : Tcr.Ir.var) ->
      match v.role with
      | Tcr.Ir.Input ->
        line 2
          (Printf.sprintf
             "cudaMemcpy(%s, %s_h, %d * sizeof(double), cudaMemcpyHostToDevice);" v.name
             v.name (elems v.name))
      | Tcr.Ir.Temp | Tcr.Ir.Output ->
        line 2
          (Printf.sprintf "cudaMemset(%s, 0, %d * sizeof(double));" v.name (elems v.name)))
    ir.vars;
  List.iter
    (fun (k : Kernel.t) ->
      let gx, gy = k.grid and tx, ty = k.block in
      line 2
        (Printf.sprintf "%s<<<dim3(%d, %d), dim3(%d, %d)>>>(%s);" k.name gx gy tx ty
           (String.concat ", " (List.map fst k.arrays))))
    kernels;
  List.iter
    (fun (v : Tcr.Ir.var) ->
      if v.role = Tcr.Ir.Output then
        line 2
          (Printf.sprintf
             "cudaMemcpy(%s_h, %s, %d * sizeof(double), cudaMemcpyDeviceToHost);" v.name
             v.name (elems v.name)))
    ir.vars;
  List.iter (fun (v : Tcr.Ir.var) -> line 2 (Printf.sprintf "cudaFree(%s);" v.name)) ir.vars;
  line 0 "}";
  Buffer.contents b

(* Full translation unit for a tuned program. *)
let emit_program ?scalar_replace (ir : Tcr.Ir.t) (points : Tcr.Space.point list) =
  Obs.Trace.with_span ~cat:"codegen"
    ~attrs:(fun () -> [ ("label", ir.label) ])
    "codegen.cuda"
  @@ fun _ ->
  let kernels = Kernel.lower_program ?scalar_replace ir points in
  let b = Buffer.create 4096 in
  buf_add b "#include <cuda_runtime.h>\n\n";
  buf_add b (Printf.sprintf "/* Generated by Barracuda from TCR program %s */\n\n" ir.label);
  List.iter
    (fun k ->
      buf_add b (emit_kernel k);
      buf_add b "\n")
    kernels;
  buf_add b (emit_host ir kernels);
  Buffer.contents b
