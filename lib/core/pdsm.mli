open Ddb_logic
open Ddb_db

(** PDSM — partial (3-valued) disjunctive stable models: I is a partial
    stable model iff I is a truth-order-minimal 3-valued model of the
    3-valued reduct DB^I.  Inference asks for truth value 1 in every
    partial stable model; total partial stable models coincide with DSM. *)

val is_partial_stable : Db.t -> Three_valued.t -> bool
(** Polynomial reduct + one SAT call on the 2n-variable encoding. *)

val satisfies_db : Db.t -> Three_valued.t -> bool
(** Kleene satisfaction of the database. *)

val find_below : Db.t -> Three_valued.t -> Three_valued.t option
(** A 3-valued model of DB^I strictly below I, if any. *)

val find_partial_stable_such_that :
  ?query:Formula.t -> Db.t -> Three_valued.t option
(** Some partial stable model giving [query] the value 1 (any partial
    stable model without it). *)

val infer_formula : Db.t -> Formula.t -> bool
val infer_literal : Db.t -> Lit.t -> bool
val has_model : Db.t -> bool

val partial_stable_models : Db.t -> Three_valued.t list
(** Reference engine: all 3^n interpretations screened (small universes). *)

val reference_models : Db.t -> Interp.t list
(** The {e total} partial stable models, as 2-valued interpretations. *)

val semantics : Semantics.t

val semantics_in : Ddb_engine.Engine.t -> Semantics.t
(** Routed through the memoizing oracle engine ({!Semantics.via_engine}). *)
