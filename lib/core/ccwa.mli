open Ddb_logic
open Ddb_db

(** CCWA — the Careful CWA of Gelfond & Przymusinska: given ⟨P;Q;Z⟩, add
    ¬x for every x ∈ P false in all (P;Z)-minimal models.  Minker's GCWA
    is the special case Q = Z = ∅ (the registry's [gcwa] record).
    Decision procedures run on a caller-supplied oracle engine (support
    sets memoized on cached engines). *)

val negated_atoms_in : Ddb_engine.Engine.t -> Db.t -> Partition.t -> Interp.t

val entails_neg_literal_in :
  Ddb_engine.Engine.t -> Db.t -> Partition.t -> int -> bool
(** One minimal-model oracle query for x ∈ P; [true] for an atom outside
    the partition's universe (false by closure). *)

val witness_in :
  Ddb_engine.Engine.t -> Db.t -> Partition.t -> Formula.t -> Interp.t option
(** A CCWA model satisfying F: one memoized SAT call on the augmented
    theory.  @raise Invalid_argument if the query leaves the partitioned
    universe. *)

val infer_formula_in :
  Ddb_engine.Engine.t -> Db.t -> Partition.t -> Formula.t -> bool
(** No CCWA model satisfies ¬F.  @raise Invalid_argument if the query
    leaves the partitioned universe. *)

val infer_literal_in :
  Ddb_engine.Engine.t -> Db.t -> Partition.t -> Lit.t -> bool

val reference_models : Db.t -> Partition.t -> Interp.t list

val semantics_in :
  name:string -> long_name:string -> Ddb_engine.Engine.t -> Semantics.t
(** The record under the given name, packed with the total partition
    ⟨V;∅;∅⟩ ({!Semantics.at_total}); every field runs in the [name] scope.
    The registry packs it as both [gcwa] and [ccwa]. *)

val infer_formula : Db.t -> Partition.t -> Formula.t -> bool
(** {!infer_formula_in} on a fresh engine without cache or fast paths (the
    paper's baseline configuration).  The known-answer route of
    [perfbench/src/workloads.ml] calls it. *)
