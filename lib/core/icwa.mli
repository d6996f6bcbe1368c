open Ddb_logic
open Ddb_db

(** ICWA — the Iterated CWA for stratified databases: the intersection of
    per-stratum ECWAs over the negation-shifted database (capturing PERF
    under stratified negation).  Existence is O(1) given stratifiability
    and no integrity clauses. *)

type instance = {
  db : Db.t;
  shifted : Db.t;  (** negative body literals moved into the heads *)
  theory : Ddb_sat.Minimal.theory;
      (** [shifted] compiled once; every solver of the search copies it *)
  parts : Partition.t list;  (** ⟨P_i; Q_i; Z_i⟩ per stratum *)
}

val prepare : Db.t -> Partition.t -> instance option
(** [None] when the database is not stratified. *)

val is_icwa_model : instance -> Interp.t -> bool

val witness : Db.t -> Partition.t -> Formula.t -> Interp.t option
(** An ICWA model satisfying F.  @raise Invalid_argument when unstratified
    or the query leaves the universe. *)

val infer_formula : Db.t -> Partition.t -> Formula.t -> bool
(** No ICWA model satisfies ¬F.  @raise Invalid_argument when unstratified
    or the query leaves the universe. *)

val reference_models : Db.t -> Partition.t -> Interp.t list

val semantics_in : Ddb_engine.Engine.t -> Semantics.t
(** The registry's [icwa] record on the given engine, its answers memoized
    ({!Semantics.via_engine}); ask it through {!Registry.find_in}. *)
