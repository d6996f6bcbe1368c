(** Three-valued (Kleene) interpretations for the partial disjunctive stable
    model semantics. *)

type value = F | U | T
(** Truth values 0, 1/2, 1. *)

val value_le : value -> value -> bool
val value_neg : value -> value

type t

val make : tru:Interp.t -> und:Interp.t -> t
(** @raise Invalid_argument if the sets overlap or universes differ. *)

val of_two_valued : Interp.t -> t
val all_undefined : int -> t

val tru : t -> Interp.t
val fls : t -> Interp.t

val value : t -> int -> value
val is_total : t -> bool
val to_two_valued_opt : t -> Interp.t option
val equal : t -> t -> bool

val le : t -> t -> bool
(** Pointwise truth ordering. *)

val lt : t -> t -> bool

val satisfies_clause : t -> Clause.t -> bool
(** Kleene truth of a database rule: val(head) ≥ val(body). *)

type reduced_rule = { head : int list; pos : int list; floor : value }
(** Rule of a 3-valued reduct: negative literals collapsed into the constant
    [floor]. *)

val reduce_clause : t -> Clause.t -> reduced_rule
val satisfies_reduced : t -> reduced_rule -> bool

val all : int -> t list
(** All 3^n interpretations (reference engine; small n only). *)

val eval_formula : t -> Formula.t -> value
(** Kleene evaluation of a query formula. *)

val pp : ?vocab:Vocab.t -> Format.formatter -> t -> unit
