(** Abstract syntax for non-ground disjunctive Datalog. *)

type term = Var of string | Const of string

type atom = { pred : string; args : term list }

type rule = { head : atom list; pos : atom list; neg : atom list }

type program = rule list

val atom : string -> term list -> atom

val name : string -> string list -> string
(** [name p [c1; ...; ck]] is ["p(c1,...,ck)"] ([p] when [k = 0]): the
    propositional atom that stands for a ground atom, as the grounder
    interns it and as [.ddb] files and queries spell it. *)

val is_safe : rule -> bool
(** Every variable occurs in the positive body. *)

val constants_of_program : program -> string list

val pp_rule : Format.formatter -> rule -> unit
