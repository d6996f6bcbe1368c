open Ddb_logic
open Ddb_sat

(** The PERF priority relation and perfectness checks. *)

type t

val compute : Db.t -> t
(** Transitive closure of the clause-derived priority constraints. *)

val lt : t -> int -> int -> bool
(** [lt t x y]: x < y (y has strictly higher priority). *)

val not_preferable : t -> Interp.t -> Lit.t list list
(** [not_preferable t n]: ¬(N ≺ M) as a DNF over M — the term M = N, and
    per x ∈ N the term ¬x ∧ ⋀\{¬y : y ∈ lt(x)∖N\}.  An interpretation M
    satisfies some term iff N is not preferable to M. *)

val perfectness : ?solver:Solver.t -> Db.t -> Interp.t -> Minimal.verdict
(** [perfectness db m]: [Pass] when no model of [db] is preferable to the
    minimal model [m], i.e. [m] is perfect; otherwise
    [Refute (not_preferable t n)] for the preferable model [n] found, which
    excludes every model [n] is preferable to, none of them perfect.  The
    priority relation is computed once per [perfectness db]; each test is
    one SAT call on [solver] (default: a fresh one), which must contain
    exactly the database theory. *)

val is_perfect : ?priority:t -> Db.t -> Interp.t -> bool

val brute_perfect_models : Db.t -> Interp.t list

val perfect_models : Db.t -> Interp.t list
(** The minimal models that pass the perfectness check. *)
