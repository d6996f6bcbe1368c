(** Abstract syntax for non-ground disjunctive Datalog. *)

type term = Var of string | Const of string

type atom = { pred : string; args : term list }

type rule = { head : atom list; pos : atom list; neg : atom list }

type program = rule list

val atom : string -> term list -> atom

val is_safe : rule -> bool
(** Every variable occurs in the positive body. *)

val constants_of_program : program -> string list

val pp_rule : Format.formatter -> rule -> unit
