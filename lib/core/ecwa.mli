open Ddb_logic
open Ddb_db

(** ECWA — the Extended CWA: [ECWA_{P;Z}(DB) = MM(DB;P;Z)], equivalent to
    circumscription in the finite propositional case ({!Circ} answers
    existence and formulas on its own schema, literals and witnesses
    through this module).  The EGCWA of Yahya & Henschen,
    [EGCWA(DB) = MM(DB)], is the special case Q = Z = ∅ (the registry's
    [egcwa] record).  Decision procedures run on the engine they are
    asked on: literals over P ∪ Q on the support set and classical
    entailment, everything else on the minimal-model witness search, all
    memoized on cached engines; ask them through
    [Registry.find_in ?part]. *)

val witness_in :
  Ddb_engine.Engine.t -> Db.t -> Partition.t -> Formula.t -> Interp.t option
(** A (P;Z)-minimal model satisfying F, memoized: the witness search of
    both this record and {!Circ}'s.  @raise Invalid_argument if the query
    leaves the partitioned universe. *)

val infer_literal_in :
  Ddb_engine.Engine.t -> Db.t -> Partition.t -> Lit.t -> bool
(** [MM(DB;P;Z) ⊨ l], the literal procedure of both this record and
    {!Circ}'s.  ¬x with x ∈ P reads the support set
    ({!Ddb_engine.Engine.in_some_minimal}); any other literal over P ∪ Q is
    classical entailment from DB, which minimization cannot change; a Z
    literal takes the witness search.  @raise Invalid_argument if the
    atom is outside the partitioned universe. *)

val semantics :
  ?part:Partition.t -> name:string -> long_name:string -> unit ->
  Semantics.spec
(** The record under the given name, asked at [part], by default the
    total partition ⟨V;∅;∅⟩ ({!Semantics.at_total}).  The registry names
    it [egcwa] and [ecwa]; its wrapper ([Fastpath.wrap]) runs every field
    in the [name] scope, so the record opens none of its own.  A query atom
    outside [part]'s universe raises [Invalid_argument]. *)
