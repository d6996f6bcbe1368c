open Ddb_logic
open Ddb_db

(** DSM — Przymusinski's disjunctive stable models:
    [DSM(DB) = { M : M ∈ MM(DB^M) }] with [DB^M] the Gelfond–Lifschitz
    reduct.  Inference is Π₂ᵖ-complete; model existence Σ₂ᵖ-complete (even
    without integrity clauses), trivially true on positive databases where
    DSM = MM. *)

val is_stable : Db.t -> Interp.t -> bool
(** Stability check: polynomial reduct + one minimality SAT call. *)

val stable_models : Db.t -> Interp.t list
(** The minimal models that pass the stability check. *)

val reference_models : Db.t -> Interp.t list

val semantics : Semantics.spec
(** The registry's [dsm] record: the minimal models screened by
    {!is_stable} ({!Semantics.screened}); ask it through
    {!Registry.find_in}. *)
