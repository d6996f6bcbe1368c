open Ddb_logic

(** SAT-based model enumeration with projection blocking. *)

val blocking_clause : universe:int -> Interp.t -> Lit.t list

val iter :
  universe:int ->
  Solver.t ->
  (Interp.t -> [ `Continue | `Stop ]) ->
  unit
(** Enumerate models projected to the first [universe] atoms (each projection
    once).  Mutates the solver by adding blocking clauses.  Each reported
    model charges the ambient {!Ddb_budget.Budget} enumeration cap, the one
    cap on an enumeration's length. *)

val all_models : num_vars:int -> Lit.t list list -> Interp.t list
val count_models : num_vars:int -> Lit.t list list -> int
