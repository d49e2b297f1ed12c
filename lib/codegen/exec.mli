(** The one interpreter of the kernel IR. Executes the same structure the
    CUDA emitter prints - grid and block loops, the unrolled main loop plus
    epilogue (an unroll below 1 runs as 1), the scalar-replaced output and
    shared-memory staging (a tile whose guard admits no thread reads as
    zero) - in floats for the test-suite's checks against the einsum
    oracle, and over integers for translation validation in F_p.
    Addresses come from the kernel's own [extents] table and every access
    is bounds-checked against the real allocation. *)

(** An access outside the array it reads (e.g. a corrupted stride
    table). *)
exception Out_of_bounds of string

type env = (string * Tensor.Dense.t) list

(** Execute one kernel over its grid, accumulating into the output (which
    the generated CUDA also loads before accumulating). Raises
    [Invalid_argument] on unbound tensors, shapes that disagree with the
    kernel's extents, or a malformed kernel. *)
val run_kernel : Kernel.t -> env -> unit

(** The same interpretation over integers, with [add]/[mul] as the
    arithmetic (translation validation passes F_p's). Arrays are bound by
    name; raises {!Out_of_bounds} on an access outside its array and
    [Invalid_argument] on an unbound array or a malformed kernel. *)
val run_kernel_int :
  add:(int -> int -> int) ->
  mul:(int -> int -> int) ->
  (string * int array) list ->
  Kernel.t ->
  unit

(** Non-input variables of a program with their dims, in declaration
    order. *)
val produced : Tcr.Ir.t -> (string * string list) list

(** [with_produced alloc env produced] extends [env], in order, with
    [alloc dims] for each produced [(name, dims)] not bound yet. *)
val with_produced :
  (string list -> 'a) -> (string * 'a) list -> (string * string list) list -> (string * 'a) list

(** Extend an input environment with zeroed temporaries and outputs. *)
val allocate_produced : Tcr.Ir.t -> env -> env

(** Lower each statement under its point and execute the kernels in order
    (data stays "device-resident" in the environment). Returns the extended
    environment; outputs are found under their names. *)
val run_program : ?scalar_replace:bool -> Tcr.Ir.t -> Tcr.Space.point list -> env -> env

(** Reference evaluation with the einsum oracle, accumulating when several
    statements target the same tensor. *)
val run_reference : Tcr.Ir.t -> env -> env
