open Ddb_logic

(** Pigeonhole CNF instances (hard for resolution — the SAT-ablation stress
    family). *)

val unsat_instance : int -> int * Lit.t list list
(** PHP(n+1, n). *)

val sat_instance : int -> int * Lit.t list list
(** PHP(n, n). *)
