open Ddb_logic

(** Model-theoretic primitives: M(DB), MM(DB), MM(DB;P;Z), classical
    entailment and minimal-model witnesses.  SAT-backed engines plus
    brute-force references for small universes. *)

val has_model : Db.t -> bool
val all_models : Db.t -> Interp.t list

val minimal_models : ?part:Partition.t -> Db.t -> Interp.t list
(** One (P;Z)-minimal model per minimal (P,Q)-section (default: the total
    partition, where that is all of MM(DB)). *)

val guard : universe:int -> Formula.t option -> Lit.t list list
(** [guard ~universe (Some f)]: the clauses of
    {!Ddb_sat.Cnf.assert_clauses} asserting [f] (auxiliary variables
    numbered from [universe]) — the one "model satisfies F" restriction
    every guess-and-check search and classical entailment's
    counterexample solver use.  A solver holding them yields only models
    of [f], so no search screens its candidates for [f] again.  [None]
    restricts nothing. *)

val minimal_witness :
  part:Partition.t ->
  theory:Ddb_sat.Minimal.theory ->
  Db.t ->
  Formula.t ->
  Interp.t option
(** A (P;Z)-minimal model satisfying F, by guess-and-check over the
    universe padded to cover F; [theory] is the padded DB, compiled.
    MM(DB;P;Z) ⊨ F is the ECWA record's question: no minimal model
    satisfies ¬F. *)

val entails : Db.t -> Formula.t -> bool
(** Classical DB ⊨ F: one SAT call. *)

val brute_models : Db.t -> Interp.t list
val brute_minimal_models : ?part:Partition.t -> Db.t -> Interp.t list
