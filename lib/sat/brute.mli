open Ddb_logic

(** Truth-table SAT reference engine (exponential; small universes only). *)

val satisfies : Interp.t -> Lit.t list list -> bool
val models : num_vars:int -> Lit.t list list -> Interp.t list
val is_sat : num_vars:int -> Lit.t list list -> bool
