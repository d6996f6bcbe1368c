open Ddb_logic
open Ddb_sat

(** The PERF priority relation and perfectness checks. *)

type t

val compute : Db.t -> t
(** Transitive closure of the clause-derived priority constraints. *)

val lt : t -> int -> int -> bool
(** [lt t x y]: x < y (y has strictly higher priority). *)

val find_preferable :
  ?solver:Solver.t -> Db.t -> t -> Interp.t -> Interp.t option
(** A model preferable to the given model, if any — one SAT call.  The
    optional solver must contain exactly the database theory. *)

val is_perfect : ?priority:t -> Db.t -> Interp.t -> bool

val brute_perfect_models : Db.t -> Interp.t list

val perfect_models : Db.t -> Interp.t list
(** The minimal models that pass the perfectness check. *)
