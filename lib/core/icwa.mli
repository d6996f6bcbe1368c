open Ddb_logic
open Ddb_db

(** ICWA — the Iterated CWA for stratified databases: the intersection of
    per-stratum ECWAs over the negation-shifted database (capturing PERF
    under stratified negation).  Existence is O(1) given stratifiability
    and no integrity clauses. *)

type instance = {
  db : Db.t;
  shifted : Db.t;  (** negative body literals moved into the heads *)
  parts : Partition.t list;  (** ⟨P_i; Q_i; Z_i⟩ per stratum *)
}

val prepare : Db.t -> Partition.t -> instance option
(** [None] when the database is not stratified. *)

val is_icwa_model : instance -> Interp.t -> bool

val find_icwa_model_such_that : ?query:Formula.t -> instance -> Interp.t option
(** Some ICWA model satisfying [query] (any ICWA model without it). *)

val witness : Db.t -> Partition.t -> Formula.t -> Interp.t option
(** An ICWA model satisfying F.  @raise Invalid_argument when unstratified
    or the query leaves the universe. *)

val infer_formula : Db.t -> Partition.t -> Formula.t -> bool
(** No ICWA model satisfies ¬F.  @raise Invalid_argument when unstratified
    or the query leaves the universe. *)

val infer_literal : Db.t -> Partition.t -> Lit.t -> bool

val has_model : Db.t -> bool
(** Without integrity clauses: true iff stratified — the O(1) consistency
    guarantee.  With them: whether an ICWA model exists at the total
    partition (false when unstratified). *)

val reference_models : Db.t -> Partition.t -> Interp.t list
val semantics : Semantics.t

val semantics_in : Ddb_engine.Engine.t -> Semantics.t
(** Routed through the memoizing oracle engine ({!Semantics.via_engine}). *)
