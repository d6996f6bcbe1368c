open Ddb_logic
open Ddb_sat
open Ddb_db

(** CIRC — propositional circumscription implemented from Lifschitz's
    schema with a primed copy of the universe (independent of the
    assumption-based minimal-model engine; the equivalence with {!Ecwa} is
    property-tested). *)

val schema_solver : Db.t -> Partition.t -> Solver.t
(** Solver holding DB ∧ DB[P';Z'] ∧ (Q'=Q) ∧ (P'≤P) ∧ (P'≠P); atom x's
    primed copy has id [num_vars + x]. *)

val is_circ_model : ?schema:Solver.t -> Db.t -> Partition.t -> Interp.t -> bool
val infer_formula : Db.t -> Partition.t -> Formula.t -> bool
val infer_literal : Db.t -> Partition.t -> Lit.t -> bool
val has_model : Db.t -> bool
val reference_models : Db.t -> Partition.t -> Interp.t list

val semantics_in : Ddb_engine.Engine.t -> Semantics.t
(** Routed through the memoizing oracle engine ({!Semantics.via_engine});
    witnesses come from the engine's ECWA search ({!Ecwa.witness_in}). *)
