open Ddb_logic
open Ddb_db

(** PERF — Przymusinski's Perfect Model Semantics.  Perfect models are the
    minimal models no model is preferable to under the clause-derived
    priority relation (see {!Ddb_db.Priority}); the engines walk minimal
    models lazily and screen each with a one-SAT-call perfectness check. *)

val infer_formula : Db.t -> Formula.t -> bool
val infer_literal : Db.t -> Lit.t -> bool
val has_model : Db.t -> bool
val perfect_models :
  ?limit:int -> ?truncated:bool ref -> Db.t -> Interp.t list
(** A [limit]-cut enumeration sets [truncated] (if given) to [true]. *)

val reference_models : Db.t -> Interp.t list
val semantics : Semantics.t

val semantics_in : Ddb_engine.Engine.t -> Semantics.t
(** Routed through the memoizing oracle engine ({!Semantics.via_engine}). *)
