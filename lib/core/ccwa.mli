open Ddb_logic
open Ddb_db

(** CCWA — the Careful CWA of Gelfond & Przymusinska: given ⟨P;Q;Z⟩, add
    ¬x for every x ∈ P false in all (P;Z)-minimal models.  Minker's GCWA
    is the special case Q = Z = ∅ (the registry's [gcwa] record).
    Decision procedures run on the engine they are asked on (support sets
    memoized on cached engines); ask them through
    [Registry.find ?part]. *)

val semantics :
  ?part:Partition.t -> name:string -> long_name:string -> unit ->
  Semantics.t
(** The record under the given name, asked at [part], by default the
    total partition ⟨V;∅;∅⟩ ({!Semantics.at_total}).  The registry names
    it [gcwa] and [ccwa]; its wrapper ([Fastpath.wrap]) runs every field in
    the [name] scope, so the record opens none of its own.  A query atom
    outside [part]'s universe raises [Invalid_argument]. *)

val infer_formula : Db.t -> Partition.t -> Formula.t -> bool
(** CCWA(DB) ⊨ F at the given partition, on a fresh engine without cache
    or fast paths (the paper's baseline configuration).  The known-answer
    route of [perfbench/src/workloads.ml] calls it. *)
