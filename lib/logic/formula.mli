(** Propositional formulas — the query language for formula inference.

    Smart constructors perform light simplification with the boolean
    constants; [cnf]/[dnf] convert by distribution (fine for query-sized
    formulas; the SAT layer's encoder, [Cnf], takes large ones). *)

type t =
  | True
  | False
  | Atom of int
  | Not of t
  | And of t * t
  | Or of t * t
  | Imp of t * t
  | Iff of t * t

val atom : int -> t
val of_lit : Lit.t -> t
val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val big_and : t list -> t
val big_or : t list -> t
val eval : Interp.t -> t -> bool
val atoms : t -> int list
val max_atom : t -> int
val nnf : t -> t

val cnf : t -> Lit.t list list
(** CNF by distribution; [[]] in the result is the empty (false) clause.
    Tautological clauses are dropped, literals deduplicated. *)

val dnf : t -> Lit.t list list
(** DNF by distribution; result [[]] is falsum, [[[]]] verum. *)

val equal : t -> t -> bool
val pp : ?vocab:Vocab.t -> Format.formatter -> t -> unit
val to_string : ?vocab:Vocab.t -> t -> string
