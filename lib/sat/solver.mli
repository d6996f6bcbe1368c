open Ddb_logic

(** CDCL SAT solver — the NP oracle of the reproduction.

    Incremental interface: clauses may be added between [solve] calls, and
    [solve] accepts assumption literals.  Every [solve] bumps
    {!Stats.bump_sat}, the oracle-call count of the complexity harness. *)

type t

type result = Sat | Unsat

val create : ?num_vars:int -> unit -> t
val of_clauses : num_vars:int -> Lit.t list list -> t

val copy : t -> t
(** An independent solver in exactly the given solver's state: every later
    [solve], model, conflict and decision on the copy is what the original
    would have produced, and neither sees the other's changes. *)

val ensure_vars : t -> int -> unit
val new_var : t -> int

val add_clause : t -> Lit.t list -> unit
(** Add a clause.  Tautologies are dropped; an empty (or root-falsified)
    clause makes the solver permanently unsatisfiable. *)

val add_formula : t -> next_var:int -> Formula.t -> int
(** Assert a formula via Tseitin encoding, allocating auxiliary variables
    from [next_var] upward.  Returns the next free variable. *)

val solve : ?assumptions:Lit.t list -> t -> result

val model : ?universe:int -> t -> Interp.t
(** Model of the last [Sat] answer, projected to the first [universe]
    atoms (default: all solver variables). *)

val is_root_unsat : t -> bool

val conflicts : t -> int
val decisions : t -> int
val propagations : t -> int
