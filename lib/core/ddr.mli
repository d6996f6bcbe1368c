open Ddb_logic
open Ddb_db

(** DDR — the Disjunctive Database Rule (Ross & Topor) ≡ Weak GCWA:
    ¬x is assumed for every atom not occurring in the T_DB↑ω fixpoint.
    Defined for DDDBs (no negation); integrity clauses are legal but
    invisible to T (the paper's Example 3.1). *)

val negated_atoms : Db.t -> Interp.t

val entails_neg_literal_poly : Db.t -> int -> bool
(** Chan's polynomial negative-literal inference, shared by DDR and PWS
    (both entail ¬x iff x is outside the occurrence closure); only valid
    without integrity clauses.  @raise Invalid_argument otherwise. *)

val reference_models : Db.t -> Interp.t list

val semantics : Semantics.spec
(** The registry's [ddr] record; ask it through {!Registry.find_in}.  The polynomial occurrence-closure cells stay
    oracle-free; formula inference and the cells with integrity clauses
    are one SAT call on the augmented theory (coNP). *)
