open Ddb_logic
open Ddb_db

(** DSM — Przymusinski's disjunctive stable models:
    [DSM(DB) = { M : M ∈ MM(DB^M) }] with [DB^M] the Gelfond–Lifschitz
    reduct.  Inference is Π₂ᵖ-complete; model existence Σ₂ᵖ-complete (even
    without integrity clauses), trivially true on positive databases where
    DSM = MM. *)

val is_stable : Db.t -> Interp.t -> bool
(** Stability check: polynomial reduct + one minimality SAT call. *)

val find_stable_such_that : ?query:Formula.t -> Db.t -> Interp.t option
(** Some stable model satisfying [query] (any stable model without it). *)

val infer_formula : Db.t -> Formula.t -> bool
val infer_literal : Db.t -> Lit.t -> bool
val has_model : Db.t -> bool
val stable_models : ?limit:int -> ?truncated:bool ref -> Db.t -> Interp.t list
(** A [limit]-cut enumeration sets [truncated] (if given) to [true]. *)

val reference_models : Db.t -> Interp.t list
val semantics : Semantics.t

val semantics_in : Ddb_engine.Engine.t -> Semantics.t
(** Routed through the memoizing oracle engine ({!Semantics.via_engine}). *)
