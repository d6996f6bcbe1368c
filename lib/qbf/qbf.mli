open Ddb_logic

(** 2-QBF instances: two quantifier blocks over disjoint variable sets and a
    propositional matrix — the canonical Σ₂ᵖ/Π₂ᵖ-complete problems the
    paper reduces from. *)

type prefix = Exists_forall | Forall_exists

type t = {
  prefix : prefix;
  num_vars : int;
  block1 : int list;  (** outermost block *)
  block2 : int list;  (** innermost block *)
  matrix : Formula.t;
}

val make :
  prefix:prefix ->
  num_vars:int ->
  block1:int list ->
  block2:int list ->
  matrix:Formula.t ->
  t
(** Validation is linear in the blocks and the matrix.
    @raise Invalid_argument on out-of-range block variables, overlapping
    blocks, or free matrix variables (checked in that order). *)

val negate : t -> t
(** ¬(∃∀ φ) = ∀∃ ¬φ. *)

