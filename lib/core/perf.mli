open Ddb_logic
open Ddb_db

(** PERF — Przymusinski's Perfect Model Semantics.  Perfect models are the
    minimal models no model is preferable to under the clause-derived
    priority relation (see {!Ddb_db.Priority}); the record walks minimal
    models lazily and screens each with a one-SAT-call perfectness
    check ({!Semantics.screened}). *)

val reference_models : Db.t -> Interp.t list

val semantics : Semantics.spec
(** The registry's [perf] record ({!Semantics.screened}); ask it through
    {!Registry.find_in}. *)
