open Ddb_logic
open Ddb_db

(** DDR — the Disjunctive Database Rule (Ross & Topor) ≡ Weak GCWA:
    ¬x is assumed for every atom not occurring in the T_DB↑ω fixpoint.
    Defined for DDDBs (no negation); integrity clauses are legal but
    invisible to T (the paper's Example 3.1). *)

val occurring : Db.t -> Interp.t
(** Atoms occurring in T↑ω — the polynomial occurrence closure. *)

val negated_atoms : Db.t -> Interp.t

val entails_neg_literal_poly : Db.t -> int -> bool
(** Chan's polynomial negative-literal inference; only valid without
    integrity clauses.  @raise Invalid_argument otherwise. *)

val reference_models : Db.t -> Interp.t list
val occurring_reference : Db.t -> Interp.t

(** Decision procedures on a caller-supplied oracle engine.  The
    polynomial occurrence-closure cells stay oracle-free; only the SAT-call
    cells go through the engine. *)

val infer_formula_in : Ddb_engine.Engine.t -> Db.t -> Formula.t -> bool
(** One SAT call on the augmented theory (coNP). *)

val infer_literal_in : Ddb_engine.Engine.t -> Db.t -> Lit.t -> bool
val has_model_in : Ddb_engine.Engine.t -> Db.t -> bool
val semantics_in : Ddb_engine.Engine.t -> Semantics.t
