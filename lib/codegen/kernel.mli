(** GPU kernel intermediate form: one TCR statement lowered under a search
    point (decomposition + unroll factors) - the common output of the
    CUDA-CHiLL-style transformations. Both the CUDA printer and the
    simulator's interpreter consume this exact structure, so the code that
    is timed is the code that is emitted. *)

type loop = {
  index : string;
  extent : int;
  unroll : int;  (** 1 = no unrolling *)
  parallel : bool;  (** output (parallel) index, vs. reduction *)
}

(** One factor staged through a shared-memory tile: the block cooperatively
    loads the factor's per-block footprint into [__shared__] storage behind
    a [__syncthreads()] barrier and the compute loops read the tile.
    [tile_dims] are the reference dims that vary within a block, in
    reference order; the rest are fixed by the block indices. [guard]
    restricts the cooperative load to threads with [tx < n];
    [barrier_inside_guard] places the barrier inside that conditional (the
    barrier-under-divergence bug BAR072 proves absent). The direct
    lowering never stages - the field serves the TTGT/transpose kernel
    generators and the verifier's mutation harness. *)
type staging = {
  array : string;
  tile_dims : string list;
  guard : int option;
  barrier_inside_guard : bool;
}

type t = {
  name : string;
  op : Tcr.Ir.op;
  extents : (string * int) list;
  decomp : Tcr.Space.decomposition;
  grid : int * int;  (** blocks in x, y *)
  block : int * int;  (** threads in x, y *)
  thread_loops : loop list;  (** serial loops inside a thread, outer first *)
  scalar_replaced : bool;  (** output accumulated in a register *)
  arrays : (string * string list) list;  (** referenced arrays with dims *)
  staging : staging list;  (** factors staged in shared memory; [[]] = none *)
}

val extent : t -> string -> int

(** Row-major strides of a reference to the given dims over the kernel's
    own [extents] table (last dim stride 1). Raises like {!extent}. *)
val strides : t -> string list -> int list

(** Indices handled by the hardware decomposition. *)
val mapped_indices : t -> string list

val serial_indices : t -> string list
val reduction_loops : t -> loop list

(** Iterations of the serial loop nest per thread. *)
val serial_iterations : t -> int

val threads_per_block : t -> int
val num_blocks : t -> int
val total_threads : t -> int

(** Flops: one multiply per extra factor plus one accumulate add, per
    innermost point. *)
val flops : t -> int

(** Elements of one staged tile (product of its tile-dim extents). *)
val tile_elements : t -> staging -> int

(** Static shared-memory footprint in bytes (8-byte doubles). *)
val smem_bytes : t -> int

(** Stage a factor through a shared tile; its tile dims are the dims not
    fixed by the block decomposition. Raises if [array] is not a factor
    of the kernel's op. *)
val stage_factor : ?guard:int -> ?barrier_inside_guard:bool -> t -> string -> t

val staging_of : t -> string -> staging option

(** Lower one statement. Serial loops keep the op's order with unmapped
    parallel loops outermost and reductions innermost. Raises if the
    decomposition maps a reduction index. [scalar_replace] defaults to
    [true] (Section IV); [false] exists for the ablation study. *)
val lower :
  ?scalar_replace:bool -> name:string -> Tcr.Ir.t -> Tcr.Ir.op -> Tcr.Space.point -> t

(** One kernel per statement, named [<label>_GPU_<n>] as in Figure 2(d).
    Requires one point per op. *)
val lower_program : ?scalar_replace:bool -> Tcr.Ir.t -> Tcr.Space.point list -> t list
