(** Database clauses (rules) [a1 v ... v an :- b1, ..., bk, not c1, ..., not cm].

    Heads and bodies are kept sorted and duplicate-free; structural equality
    is equality of the normalized rule. *)

type t

val make : head:int list -> pos:int list -> neg:int list -> t
val fact : int list -> t
(** Disjunctive fact [a1 v ... v an.]. *)

val integrity : pos:int list -> neg:int list -> t
(** Empty-headed clause [:- b1, ..., not c1, ...]. *)

val head : t -> int list
val body_pos : t -> int list
val body_neg : t -> int list

val is_integrity : t -> bool
(** Empty head. *)

val is_positive : t -> bool
(** No negative body literals (the clause is in C+). *)

val is_definite : t -> bool
(** Exactly one head atom and no negation. *)

val is_disjunctive : t -> bool
val equal : t -> t -> bool
val max_atom : t -> int

val satisfied_by : Interp.t -> t -> bool

val to_lits : t -> Lit.t list
(** The rule as the classical disjunction H ∨ ¬B⁺ ∨ B⁻. *)

val of_lits : Lit.t list -> t
(** A classical disjunction as a positive rule (negated atoms to the body). *)

val reduce : Interp.t -> t -> t option
(** Gelfond–Lifschitz reduct of one rule w.r.t. an interpretation. *)

val shift_negation : t -> t
(** Move negative body literals into the head ([a :- b, not c] becomes
    [a v c :- b]); identity on positive clauses. *)

val pp : ?vocab:Vocab.t -> Format.formatter -> t -> unit
val to_string : ?vocab:Vocab.t -> t -> string
