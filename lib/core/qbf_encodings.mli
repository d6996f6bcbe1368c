open Ddb_logic
open Ddb_db
open Ddb_qbf

(** Direct 2-QBF encodings of the minimal-model queries — the textbook Σ₂ᵖ
    membership arguments, cross-checked against the incremental SAT engine
    (three independent routes to the same answers). *)

val some_minimal_model_with_atom : Db.t -> int -> Qbf.t

val gcwa_refutes_neg_literal_qbf : Db.t -> int -> bool
(** GCWA(DB) ⊭ ¬x decided through the CEGAR QBF solver. *)

val egcwa_entails_qbf : Db.t -> Formula.t -> bool
(** EGCWA(DB) ⊨ F decided through the CEGAR QBF solver. *)
