open Ddb_logic
open Ddb_db

(** Seeded random database families, one per table setting of the paper. *)

type profile = {
  head_max : int;
  pos_max : int;
  neg_max : int;
  integrity_ratio : float;
  clause_ratio : float;
}

val generate : ?profile:profile -> seed:int -> num_vars:int -> unit -> Db.t

val positive : seed:int -> num_vars:int -> Db.t
(** Table 1 family: no negation, no integrity clauses. *)

val with_integrity : seed:int -> num_vars:int -> Db.t
(** Table 2, negation-free rows. *)

val normal : seed:int -> num_vars:int -> Db.t
(** Full DNDBs (negation + integrity clauses). *)

val definite : ?integrity_ratio:float -> seed:int -> num_vars:int -> unit -> Db.t
(** Definite-Horn family: single-headed positive rules plus positive
    integrity clauses — the least-model fast-path fragment. *)

val stratified :
  ?layers:int -> ?head_max:int -> seed:int -> num_vars:int -> unit -> Db.t
(** Stratified family (negation only reaches strictly lower layers);
    [head_max] (default 2) of 1 keeps it normal — the perfect-model
    fast-path fragment. *)

val formula : seed:int -> num_vars:int -> depth:int -> Formula.t
val random_partition : seed:int -> num_vars:int -> Partition.t
