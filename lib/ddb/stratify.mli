open Ddb_logic

(** Stratification of disjunctive databases: head atoms share a stratum,
    positive body atoms sit no higher, negative body atoms sit strictly
    lower.  Computed as least solution of difference constraints. *)

type t

val compute : Db.t -> t option
(** Least stratification, or [None] when the database recurses through
    negation. *)

val is_stratified : Db.t -> bool
val num_strata : t -> int
val strata : t -> Interp.t list
(** S1 ... Sr, each an atom set, in priority order. *)

val level : t -> int -> int
(** 0-based stratum index of an atom. *)

val valid_stratification : Db.t -> Interp.t list -> bool
(** Check an explicitly given layering against the conditions. *)

val split : Db.t -> t -> Clause.t list list
(** Clauses grouped by stratum (integrity clauses attach to the deepest
    stratum their body mentions). *)
