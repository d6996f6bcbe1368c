open Ddb_logic

(** ECWA — the Extended CWA: [ECWA_{P;Z}(DB) = MM(DB;P;Z)], equivalent to
    circumscription in the finite propositional case (the registry's
    [circ] record is this record under its own name, see {!Circ}).  The
    EGCWA of Yahya & Henschen, [EGCWA(DB) = MM(DB)], is the special case
    Q = Z = ∅ (the registry's [egcwa] record).  Decision procedures run
    on the engine they are asked on: existence is O(1) on positive DDBs
    and one SAT call otherwise; ¬x with x ∈ P reads the support set
    ({!Ddb_engine.Engine.in_some_minimal}); any other literal over P ∪ Q
    is classical entailment from DB, which minimization cannot change;
    everything else takes the minimal-model witness search
    ({!Ddb_engine.Engine.minimal_witness}); all are memoized on cached
    engines.  Ask them through [Registry.find ?part]. *)

val semantics :
  ?part:Partition.t -> name:string -> long_name:string -> unit ->
  Semantics.t
(** The record under the given name, asked at [part], by default the
    total partition ⟨V;∅;∅⟩ ({!Semantics.at_total}).  The registry names
    it [egcwa], [ecwa] and (through {!Circ}) [circ]; its wrapper
    ([Fastpath.wrap]) runs every field in the [name] scope, so the record
    opens none of its own.  A query atom outside [part]'s universe raises
    [Invalid_argument]. *)
