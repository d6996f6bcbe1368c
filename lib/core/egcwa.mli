open Ddb_logic
open Ddb_db

(** EGCWA — the Extended GCWA of Yahya & Henschen: [EGCWA(DB) = MM(DB)].
    Inference is truth in every minimal model (Π₂ᵖ-complete); model
    existence is consistency, and O(1) on positive DDBs without integrity
    clauses.  Decision procedures run on a caller-supplied oracle engine
    (minimal-model entailment memoized on cached engines). *)

val infer_formula_in : Ddb_engine.Engine.t -> Db.t -> Formula.t -> bool
val infer_literal_in : Ddb_engine.Engine.t -> Db.t -> Lit.t -> bool
val has_model_in : Ddb_engine.Engine.t -> Db.t -> bool
val reference_models : Db.t -> Interp.t list
val semantics_in : Ddb_engine.Engine.t -> Semantics.t
