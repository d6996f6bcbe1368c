open Ddb_db
open Ddb_qbf

(** Provably hard instance families: random ∃∀ 2-QBFs and their images
    under the paper's reductions. *)

val random_ef : seed:int -> xs:int -> ys:int -> Qbf.t
(** Random ∃X∀Y QBF with a DNF-shaped matrix of 2·[ys] + 4 terms, each
    one X-literal and two distinct Y-literals (one when [ys] = 1), so no
    term settles the matrix without Y.
    @raise Invalid_argument when [xs] or [ys] is below 1. *)

val gcwa_hard : seed:int -> xs:int -> ys:int -> Db.t * int
(** Positive DDB + witness atom w with GCWA(DB) ⊨ ¬w iff the QBF is
    invalid (Table 1's Π₂ᵖ-hard literal family). *)

val dsm_hard : seed:int -> xs:int -> ys:int -> Db.t
(** DNDB with a stable model iff the QBF is valid (Table 2's Σ₂ᵖ-hard
    existence family). *)
