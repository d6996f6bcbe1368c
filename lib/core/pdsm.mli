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

val partial_stable_models : Db.t -> Three_valued.t list
(** Reference engine: all 3^n interpretations screened (small universes). *)

val reference_models : Db.t -> Interp.t list
(** The {e total} partial stable models, as 2-valued interpretations. *)

val semantics : Semantics.t
(** The registry's [pdsm] record, its answers memoized
    ({!Semantics.via_engine}); ask it through {!Registry.find}. *)
