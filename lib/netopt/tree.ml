(* Binary contraction trees over a network, with exact cost accounting.

   [steps] is the single source of truth: it linearizes a tree into the
   post-order sequence of binary contractions that {!Lower} emits as DSL
   statements, and {!cost} is computed from that same sequence - so the
   score the optimizer minimizes is an exact account of the program that
   will be tuned, not an estimate of it.

   Costs live in log2 space (the TreeSA convention): [tc] is the log2 of
   the total loop-nest iteration count, [sc] the log2 size of the largest
   intermediate, [rw] the log2 of the total read/write volume. On a
   bandwidth-bound GPU [rw] is the term that predicts wall-clock; [sc]
   against [sc_target] models the device-memory capacity wall. *)

type t = Leaf of int | Node of t * t

type operand = Tensor of int | Step of int

type step = {
  left : operand;
  right : operand;
  out : string list;  (* retained indices; sorted except the root (output order) *)
  sums : string list;  (* indices summed at this step, sorted *)
}

(* ---------------- sorted-list index sets ---------------- *)

let set xs = List.sort_uniq compare xs

let union a b = List.sort_uniq compare (a @ b)

let inter a b = List.filter (fun x -> List.mem x b) a

let diff a b = List.filter (fun x -> not (List.mem x b)) a

(* ---------------- tree shape ---------------- *)

let rec leaves = function Leaf i -> [ i ] | Node (l, r) -> leaves l @ leaves r

(* A full binary tree whose leaves are exactly one of each input tensor. *)
let is_valid net tree =
  List.sort compare (leaves tree)
  = List.init (List.length net.Network.tensors) Fun.id

let rec to_string net tree =
  match tree with
  | Leaf i -> (List.nth net.Network.tensors i).Network.t_name
  | Node (l, r) ->
    Printf.sprintf "(%s,%s)" (to_string net l) (to_string net r)

(* ---------------- linearization ---------------- *)

let tensor_indices net i = set (List.nth net.Network.tensors i).Network.t_indices

let rec subtree_indices net = function
  | Leaf i -> tensor_indices net i
  | Node (l, r) -> union (subtree_indices net l) (subtree_indices net r)

(* Defer summations to keep an intermediate's rank at >= 2: the decision
   algorithm derives thread/block candidates from the lhs indices, and a
   rank-0/1 statement admits no legal decomposition. Moving an index from
   [sums] to [out] postpones its summation to the parent step (legal by
   distributivity - the index appears nowhere outside this subtree); we
   defer the smallest extents first to keep the intermediate small. *)
let pad net out sums =
  if List.length out >= 2 then (out, sums)
  else begin
    let by_extent =
      List.sort
        (fun a b ->
          compare (Network.extent_of net a, a) (Network.extent_of net b, b))
        sums
    in
    let need = 2 - List.length out in
    let deferred = List.filteri (fun i _ -> i < need) by_extent in
    (set (out @ deferred), diff sums deferred)
  end

(* Post-order contraction steps. The root step's [out] is the network
   output in output-axis order (and is never padded: there is no parent to
   defer a summation to). A [Leaf] tree linearizes to no steps. *)
let steps net tree =
  match tree with
  | Leaf _ -> []
  | Node _ ->
    let acc = ref [] in
    let emit step =
      acc := step :: !acc;
      Step (List.length !acc - 1)
    in
    let rec go tree outside ~root =
      match tree with
      | Leaf i -> (Tensor i, tensor_indices net i)
      | Node (l, r) ->
        let li = subtree_indices net l and ri = subtree_indices net r in
        let lop, lres = go l (union outside ri) ~root:false in
        let rop, rres = go r (union outside li) ~root:false in
        let combined = union lres rres in
        let out = inter combined outside and sums = diff combined outside in
        let out, sums = if root then (out, sums) else pad net out sums in
        let out = if root then net.Network.output else out in
        (emit { left = lop; right = rop; out; sums }, out)
    in
    let _ = go tree (set net.Network.output) ~root:true in
    List.rev !acc

let operand_indices net steps op =
  match op with
  | Tensor i -> tensor_indices net i
  | Step j -> (List.nth steps j).out

(* ---------------- cost accounting ---------------- *)

type cost = { tc : float; sc : float; rw : float }

(* log2(sum 2^x) without overflow; [-inf] for the empty list. *)
let log2sumexp = function
  | [] -> neg_infinity
  | xs ->
    let m = List.fold_left max neg_infinity xs in
    if m = neg_infinity then neg_infinity
    else
      m
      +. Float.log2
           (List.fold_left (fun acc x -> acc +. Float.exp2 (x -. m)) 0.0 xs)

let cost net tree =
  let ss = steps net tree in
  let size = Network.log2_size net in
  let tcs = List.map (fun s -> size (union s.out s.sums)) ss in
  let scs = List.map (fun s -> size s.out) ss in
  let rws =
    List.concat_map
      (fun s ->
        [
          size (operand_indices net ss s.left);
          size (operand_indices net ss s.right);
          size s.out;
        ])
      ss
  in
  { tc = log2sumexp tcs; sc = List.fold_left max neg_infinity scs; rw = log2sumexp rws }

(* ---------------- score ---------------- *)

type score_fn = {
  tc_weight : float;
  sc_weight : float;
  rw_weight : float;
  sc_target : float;  (* log2 elements an intermediate may occupy *)
}

let default_score =
  { tc_weight = 1.0; sc_weight = 1.0; rw_weight = 1.0; sc_target = 30.0 }

(* 0 * inf = nan in IEEE; a zero weight must simply drop its term. *)
let wmul w x = if w = 0.0 then 0.0 else w *. x

(* The sc term is a hard penalty: one log2 unit over [sc_target] costs as
   much as ~100 units of tc/rw, so any tree that fits the memory budget
   outranks every tree that does not. *)
let overflow_scale = 100.0

let score sf c =
  wmul sf.tc_weight c.tc
  +. wmul sf.rw_weight c.rw
  +.
  if c.sc > sf.sc_target then
    wmul sf.sc_weight ((c.sc -. sf.sc_target) *. overflow_scale)
  else 0.0

(* ---------------- reference evaluation ---------------- *)

(* Execute the steps with the einsum oracle: the numerical ground truth
   any tree must reproduce (each step sums exactly [sums] because they are
   the operand indices absent from [out]). *)
let eval net (tensors : Tensor.Dense.t array) tree =
  let tensor_op i =
    Tensor.Einsum.operand tensors.(i)
      (List.nth net.Network.tensors i).Network.t_indices
  in
  match tree with
  | Leaf i ->
    Tensor.Einsum.contract ~output_indices:net.Network.output [ tensor_op i ]
  | Node _ ->
    let ss = steps net tree in
    let results = Hashtbl.create 16 in
    List.iteri
      (fun k s ->
        let op = function
          | Tensor i -> tensor_op i
          | Step j ->
            Tensor.Einsum.operand (Hashtbl.find results j) (List.nth ss j).out
        in
        Hashtbl.add results k
          (Tensor.Einsum.contract ~output_indices:s.out [ op s.left; op s.right ]))
      ss;
    Hashtbl.find results (List.length ss - 1)

(* ---------------- tree-level diagnostics ---------------- *)

(* BAR056: an intermediate exceeds the memory budget (warning - the score
   already penalizes it; check surfaces it to humans). BAR057: a step
   retains fewer than two indices even after padding (only the root can -
   see [pad]), so the decision algorithm has no legal thread/block
   decomposition for its kernel. *)
let check ?(sc_target = default_score.sc_target) net tree =
  let open Check.Diag in
  List.concat
    (List.mapi
       (fun k (s : step) ->
         let site = Printf.sprintf "step%d" k in
         let sz = Network.log2_size net s.out in
         (if sz > sc_target then
            [
              warning Network ~code:"BAR056" ~site
                "intermediate [%s] has log2 size %.1f, exceeding sc_target %.1f"
                (String.concat " " s.out) sz sc_target;
            ]
          else [])
         @
         if List.length s.out < 2 then
           [
             warning Network ~code:"BAR057" ~site
               "step retains %d indices (<2): no thread/block decomposition \
                exists for its kernel"
               (List.length s.out);
           ]
         else [])
       (steps net tree))
