open Ddb_logic
open Ddb_db

(** ECWA — the Extended CWA: [ECWA_{P;Z}(DB) = MM(DB;P;Z)], equivalent to
    circumscription in the finite propositional case (the independent
    schema implementation lives in {!Circ}).  The EGCWA of Yahya &
    Henschen, [EGCWA(DB) = MM(DB)], is the special case Q = Z = ∅ (the
    registry's [egcwa] record).  Decision procedures run on a
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

val reference_models : Db.t -> Partition.t -> Interp.t list

val semantics_in :
  name:string -> long_name:string -> Ddb_engine.Engine.t -> Semantics.t
(** The record under the given name, packed with the total partition
    ⟨V;∅;∅⟩ ({!Semantics.at_total}).  The registry packs it as both
    [egcwa] and [ecwa]; its wrapper ([Fastpath.wrap]) runs every field in the
    [name] scope, so the record opens none of its own. *)
