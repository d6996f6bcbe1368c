open Ddb_logic
open Ddb_db

(** CWA — Reiter's Closed World Assumption (the baseline the disjunctive
    semantics repair): add ¬x for every atom not classically entailed.
    Frequently inconsistent on disjunctive databases.

    Every decision procedure runs on a caller-supplied oracle engine; the
    closure set is memoized per theory on cached engines. *)

val reference_models : Db.t -> Interp.t list
val negated_atoms_in : Ddb_engine.Engine.t -> Db.t -> Interp.t
val has_model_in : Ddb_engine.Engine.t -> Db.t -> bool
val infer_formula_in : Ddb_engine.Engine.t -> Db.t -> Formula.t -> bool
val infer_literal_in : Ddb_engine.Engine.t -> Db.t -> Lit.t -> bool
val semantics_in : Ddb_engine.Engine.t -> Semantics.t
