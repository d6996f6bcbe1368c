open Ddb_logic
open Ddb_sat
open Ddb_db

(** CIRC — propositional circumscription implemented from Lifschitz's
    schema with a primed copy of the universe (independent of the
    assumption-based minimal-model engine; the equivalence with {!Ecwa} is
    property-tested). *)

val is_circ_model : ?schema:Solver.t -> Db.t -> Partition.t -> Interp.t -> bool

val semantics_in : ?part:Partition.t -> Ddb_engine.Engine.t -> Semantics.t
(** The registry's [circ] record, packed at [part], by default the total
    partition ⟨V;∅;∅⟩; its answers are memoized per partition
    ({!Semantics.via_engine}) and its witnesses come from the engine's
    ECWA search ({!Ecwa.witness_in}).  Ask it through
    [Registry.find_in ?part]. *)
