open Ddb_logic
open Ddb_db

(** GCWA — Minker's Generalized Closed World Assumption.

    [GCWA(DB) = { M ∈ M(DB) : ∀x. (MM(DB) ⊨ ¬x) ⇒ M ⊨ ¬x }].
    Literal inference is Π₂ᵖ-complete, formula inference is Π₂ᵖ-hard and in
    P^Σ₂ᵖ[O(log n)] (see {!Oracle_algorithms}), model existence coincides
    with consistency.

    Every decision procedure runs on a caller-supplied oracle engine
    (support sets and entailment memoized per theory on cached engines). *)

val negated_atoms_in : Ddb_engine.Engine.t -> Db.t -> Interp.t
(** The closed-world augmentation: atoms false in all minimal models. *)

val entails_neg_literal_in : Ddb_engine.Engine.t -> Db.t -> int -> bool
(** [GCWA(DB) ⊨ ¬x] — one minimal-model oracle query. *)

val infer_literal_in : Ddb_engine.Engine.t -> Db.t -> Lit.t -> bool
val infer_formula_in : Ddb_engine.Engine.t -> Db.t -> Formula.t -> bool
val has_model_in : Ddb_engine.Engine.t -> Db.t -> bool
val reference_models : Db.t -> Interp.t list
val semantics_in : Ddb_engine.Engine.t -> Semantics.t
