open Ddb_logic
open Ddb_db

(** ICWA — the Iterated CWA for stratified databases: the intersection of
    per-stratum ECWAs over the negation-shifted database (capturing PERF
    under stratified negation).  Existence is O(1) given stratifiability
    and no integrity clauses. *)

type instance = {
  shifted : Db.t;  (** negative body literals moved into the heads *)
  theory : Ddb_sat.Minimal.theory;
      (** [shifted] compiled once; every solver of the search copies it *)
  parts : Partition.t list;  (** ⟨P_i; Q_i; Z_i⟩ per stratum *)
}

val prepare : Db.t -> Partition.t -> instance option
(** [None] when the database is not stratified. *)

val is_icwa_model : instance -> Interp.t -> bool

val semantics : ?part:Partition.t -> unit -> Semantics.t
(** The registry's [icwa] record, asked at [part], by default the total
    partition ⟨V;∅;∅⟩; its answers are memoized per partition
    ({!Semantics.via_engine}).  Ask it through [Registry.find ?part];
    its procedures raise [Invalid_argument] on an unstratified database or
    a query atom outside [part]'s universe. *)
