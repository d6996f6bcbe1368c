open Ddb_logic

(** Packed literal encoding and the one formula encoder of the SAT layer. *)

type plit = int
(** Packed literal: [2v] is the positive, [2v+1] the negative occurrence of
    variable [v]. *)

val plit_pos : int -> plit
val plit_neg : int -> plit
val plit_var : plit -> int
val plit_sign : plit -> bool
(** [true] = positive. *)

val plit_negate : plit -> plit
val plit_of_lit : Lit.t -> plit

val assert_clauses : next_var:int -> Formula.t -> Lit.t list list list * int
(** [(groups, next_var')]: clause groups asserting the formula, with
    auxiliary variables allocated from [next_var] upward.  An assignment of
    the formula's atoms extends to a model of the clauses iff it satisfies
    the formula.  Top-level conjuncts that are disjunctions of literals
    become one clause each, with no auxiliary; every other And/Or
    (flattened n-ary) and Iff node gets one auxiliary, defined by
    polarity: v → node, or v ↔ node under an Iff.

    Each group is one asserted clause or the whole definition of one new
    auxiliary; a group reads only atoms and auxiliaries defined by earlier
    groups.  Clause-level instantiation relies on this order. *)

val top_conjuncts : Formula.t -> Formula.t list
(** The top-level conjuncts that [assert_clauses] splits the formula into
    (flattened through ∧, ¬∨, ¬→ and ¬¬), in its order.  Their
    conjunction is equivalent to the formula, and [assert_clauses] splits
    that conjunction into the same conjuncts again. *)

val named_literal : next_var:int -> Formula.t -> Lit.t list list * int * Lit.t
(** [(clauses, next_var', l)]: the same builder's definitions, naming the
    formula by a literal [l] with [l → formula], auxiliaries allocated from
    [next_var] upward.  Every assignment of the formula's atoms extends to
    a model of the clauses, and to one that also makes [l] true iff it
    satisfies the formula: adding the clauses for good leaves a solver's
    theory alone, and assuming [l] asks for the formula.  A literal formula
    is its own [l], with no clause and no auxiliary. *)
