open Ddb_logic
open Ddb_db

(** ECWA — the Extended CWA: [ECWA_{P;Z}(DB) = MM(DB;P;Z)], equivalent to
    circumscription in the finite propositional case (the independent
    schema implementation lives in {!Circ}).  Decision procedures run on a
    caller-supplied oracle engine (minimal-model entailment memoized on
    cached engines). *)

val witness_in :
  Ddb_engine.Engine.t -> Db.t -> Partition.t -> Formula.t -> Interp.t option
(** A (P;Z)-minimal model satisfying F, memoized.  @raise Invalid_argument
    if the query leaves the partitioned universe. *)

val infer_formula_in :
  Ddb_engine.Engine.t -> Db.t -> Partition.t -> Formula.t -> bool
(** No (P;Z)-minimal model satisfies ¬F.  @raise Invalid_argument if the
    query leaves the partitioned universe. *)

val infer_literal_in :
  Ddb_engine.Engine.t -> Db.t -> Partition.t -> Lit.t -> bool

val has_model_in : Ddb_engine.Engine.t -> Db.t -> bool
val reference_models : Db.t -> Partition.t -> Interp.t list

val semantics_in : Ddb_engine.Engine.t -> Semantics.t
(** Packed with the total partition ⟨V;∅;∅⟩ (= EGCWA). *)
