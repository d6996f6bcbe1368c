open Ddb_logic
open Ddb_db

(** ECWA — the Extended CWA: [ECWA_{P;Z}(DB) = MM(DB;P;Z)], equivalent to
    circumscription in the finite propositional case (the independent
    schema implementation lives in {!Circ}).  The EGCWA of Yahya &
    Henschen, [EGCWA(DB) = MM(DB)], is the special case Q = Z = ∅ (the
    registry's [egcwa] record).  Decision procedures run on the record's
    oracle engine (minimal-model entailment memoized on cached engines);
    ask them through [Registry.find_in ?part]. *)

val witness_in :
  Ddb_engine.Engine.t -> Db.t -> Partition.t -> Formula.t -> Interp.t option
(** A (P;Z)-minimal model satisfying F, memoized: the witness search of
    both this record and {!Circ}'s.  @raise Invalid_argument if the query
    leaves the partitioned universe. *)

val semantics_in :
  ?part:Partition.t -> name:string -> long_name:string ->
  Ddb_engine.Engine.t -> Semantics.t
(** The record under the given name, packed at [part], by default the
    total partition ⟨V;∅;∅⟩ ({!Semantics.at_total}).  The registry packs it
    as [egcwa] and [ecwa]; its wrapper ([Fastpath.wrap]) runs every field
    in the [name] scope, so the record opens none of its own.  A query atom
    outside [part]'s universe raises [Invalid_argument]. *)
