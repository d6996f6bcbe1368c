open Ddb_logic
open Ddb_sat
open Ddb_db

(** CIRC — propositional circumscription.  Existence and formula answers
    come from Lifschitz's schema with a primed copy of the universe
    (independent of the assumption-based minimal-model engine; the
    equivalence with {!Ecwa} is property-tested); literal answers and
    witnesses are ECWA's, by Lifschitz's theorem. *)

val is_circ_model : ?schema:Solver.t -> Db.t -> Partition.t -> Interp.t -> bool

val semantics : ?part:Partition.t -> unit -> Semantics.spec
(** The registry's [circ] record, asked at [part], by default the total
    partition ⟨V;∅;∅⟩; its existence and formula answers are memoized per
    partition ({!Semantics.via_engine}), its literal answers and witnesses
    are ECWA's ({!Ecwa.infer_literal_in}, {!Ecwa.witness_in}), memoized by
    the engine ops they call.  Ask it through [Registry.find_in ?part]. *)
