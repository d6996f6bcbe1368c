open Ddb_logic
open Ddb_sat

(** Possible models (Sakama's PMS ≡ Chan's PWS) for DDDBs.

    M is a possible model iff M is the least model of some split of the
    database; equivalently (and in polynomial time) iff M ⊨ DB and
    M = lfp(P_M) for the projected definite program P_M (proof in the
    implementation).

    @raise Invalid_argument from every entry point if the database contains
    negation. *)

val is_possible_model : Db.t -> Interp.t -> bool
(** Polynomial check. *)

val projected_program : Db.t -> Interp.t -> Horn.rule list
(** P_M = { a ← B : (H ← B) ∈ DB, a ∈ H ∩ M }. *)

val integrity_bodies : Db.t -> int list list

val possible_models : Db.t -> Interp.t list
(** SAT-enumerate models, keep the possible ones. *)

val brute_possible_models : Db.t -> Interp.t list
(** Reference: explicit split enumeration. *)
