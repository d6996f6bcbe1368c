open Ddb_logic
open Ddb_db

(** WFS — the well-founded semantics (van Gelder, Ross & Schlipf) for
    normal programs, by the alternating fixpoint.  Polynomial: the
    tractable non-disjunctive baseline underneath PDSM.

    All entry points @raise Invalid_argument on disjunctive heads or
    integrity clauses. *)

type t = Three_valued.t

val compute : Db.t -> t
val is_total : Db.t -> bool
val infer_formula : Db.t -> Formula.t -> bool

val knowledge_le : Three_valued.t -> Three_valued.t -> bool
(** I ≤k J: both the true and the false sets grow. *)
