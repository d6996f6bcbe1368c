(** Propositional literals: signed atom ids. *)

type t = Pos of int | Neg of int

val pos : int -> t
val neg : int -> t
val atom : t -> int
val negate : t -> t
val equal : t -> t -> bool
val compare : t -> t -> int

val holds : Interp.t -> t -> bool
(** Truth of the literal in an interpretation. *)

val pp : ?vocab:Vocab.t -> Format.formatter -> t -> unit
val to_string : ?vocab:Vocab.t -> t -> string
