open Ddb_logic
open Ddb_db

(** PERF — Przymusinski's Perfect Model Semantics.  Perfect models are the
    minimal models no model is preferable to under the clause-derived
    priority relation (see {!Ddb_db.Priority}); the engines walk minimal
    models lazily and screen each with a one-SAT-call perfectness check. *)

val reference_models : Db.t -> Interp.t list

val semantics : Semantics.spec
(** The registry's [perf] record, its answers memoized
    ({!Semantics.via_engine}); ask it through {!Registry.find_in}. *)
