open Ddb_logic
open Ddb_db

(** PWS — Chan's Possible Worlds Semantics ≡ Sakama's Possible Models, for
    DDDBs.  Model checking is polynomial (M = lfp(P_M)); inference is a
    coNP-style counterexample search; without integrity clauses
    negative-literal inference is polynomial and existence is O(1). *)

val find_possible_such_that : ?query:Formula.t -> Db.t -> Interp.t option
(** Some possible model satisfying [query] (any possible model without
    it). *)

val entails_neg_literal_poly : Db.t -> int -> bool
(** Only without integrity clauses.  @raise Invalid_argument otherwise. *)

val infer_formula : Db.t -> Formula.t -> bool
val infer_literal : Db.t -> Lit.t -> bool
val has_model : Db.t -> bool
val reference_models : Db.t -> Interp.t list
val semantics : Semantics.t

val semantics_in : Ddb_engine.Engine.t -> Semantics.t
(** Routed through the memoizing oracle engine ({!Semantics.via_engine}). *)
