(** Binary contraction trees with exact cost accounting. {!steps} is the
    single source of truth: the same post-order step sequence drives the
    cost model, the einsum-oracle evaluation and {!Lower}'s DSL emission,
    so a tree's score is an exact account of the program that gets tuned.

    Costs are in log2 space (the TreeSA convention): [tc] log2 total
    loop-nest iterations, [sc] log2 size of the largest intermediate, [rw]
    log2 total read/write volume - the term that predicts wall-clock on a
    bandwidth-bound GPU. *)

type t = Leaf of int | Node of t * t

type operand = Tensor of int  (** input tensor, by position *)
             | Step of int  (** result of an earlier step *)

type step = {
  left : operand;
  right : operand;
  out : string list;
      (** retained indices; sorted, except the root step which uses the
          network's output-axis order *)
  sums : string list;  (** indices summed at this step, sorted *)
}

(** Leaf tensor positions, left to right. *)
val leaves : t -> int list

(** A full binary tree over exactly one leaf per input tensor. *)
val is_valid : Network.t -> t -> bool

(** Serialized order, e.g. ["((T0,T1),T2)"] - journal/CLI provenance. *)
val to_string : Network.t -> t -> string

(** Union of the indices of the subtree's leaf tensors, sorted. *)
val subtree_indices : Network.t -> t -> string list

(** Post-order binary contraction steps. Intermediates retaining fewer
    than two indices keep their smallest-extent summation indices instead
    (deferring those sums to the parent - legal by distributivity), since
    rank-0/1 statements admit no thread/block decomposition. A [Leaf]
    linearizes to no steps. *)
val steps : Network.t -> t -> step list

(** The indices of an operand's value ([out] of the referenced step). *)
val operand_indices : Network.t -> step list -> operand -> string list

type cost = { tc : float; sc : float; rw : float }

val cost : Network.t -> t -> cost

(** log2(sum of 2^x), [neg_infinity] on the empty list. *)
val log2sumexp : float list -> float

type score_fn = {
  tc_weight : float;
  sc_weight : float;
  rw_weight : float;
  sc_target : float;  (** log2 elements an intermediate may occupy *)
}

(** [{tc_weight = 1; sc_weight = 1; rw_weight = 1; sc_target = 30}]. *)
val default_score : score_fn

(** Multiplier on the [sc]-over-target penalty term: one log2 unit over
    budget outweighs ~100 units of tc/rw, making [sc_target] a hard cap. *)
val overflow_scale : float

val score : score_fn -> cost -> float

(** Execute the steps with the einsum oracle ({!Tensor.Einsum}): the
    numerical ground truth any tree must reproduce. Tensors are positional. *)
val eval : Network.t -> Tensor.Dense.t array -> t -> Tensor.Dense.t

(** Tree-level diagnostics: BAR056 intermediate exceeds [sc_target]
    (warning), BAR057 step retains fewer than two indices (warning; only
    the root step can, when the network output itself has rank < 2). *)
val check : ?sc_target:float -> Network.t -> t -> Check.Diag.t list
