open Ddb_logic
open Ddb_sat
open Ddb_db

(** CIRC — propositional circumscription.  In the finite propositional
    case CIRC ≡ ECWA (Lifschitz), so the record's decision procedures and
    witness search are {!Ecwa}'s.  Lifschitz's schema, with a primed copy
    of the universe, is CIRC's independent checker: it decides
    {!is_circ_model} and the record's reference models. *)

val is_circ_model : ?schema:Solver.t -> Db.t -> Partition.t -> Interp.t -> bool
(** [is_circ_model db part m]: [m] is a model of Circ(DB; P; Z) —
    [m ⊨ DB] and the schema finds no model strictly below it.  [schema]
    is the schema solver of [db] and [part] (default: built here). *)

val semantics : ?part:Partition.t -> unit -> Semantics.spec
(** The registry's [circ] record: {!Ecwa.semantics} at [part] (by default
    the total partition ⟨V;∅;∅⟩) under the name [circ], so its answers
    share ECWA's memo entries; its reference models are the brute models
    that pass {!is_circ_model}.  Ask it through [Registry.find_in ?part]. *)
