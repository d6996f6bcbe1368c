open Ddb_logic
open Ddb_sat

(** Propositional disjunctive databases over a fixed universe. *)

type t

val make : ?vocab:Vocab.t -> Clause.t list -> t
(** Universe = max(vocabulary size, highest atom id in the clauses + 1). *)

val of_string : string -> t
(** Parse a program (see {!Ddb_logic.Parse}). *)

val of_file : string -> t

val vocab : t -> Vocab.t
val clauses : t -> Clause.t list
val num_vars : t -> int
val size : t -> int
(** Number of clauses. *)

val with_universe : t -> int -> t
(** Pad the universe to at least [n] atoms. *)

val has_integrity : t -> bool
val has_negation : t -> bool
val has_disjunction : t -> bool

val is_dddb : t -> bool
(** Disjunctive deductive database: no negation. *)

val is_positive_ddb : t -> bool
(** Table 1 setting: no negation, no integrity clauses. *)

val is_normal_program : t -> bool
(** At most one head atom per clause. *)

val satisfied_by : Interp.t -> t -> bool
val to_cnf : t -> Lit.t list list
val theory : t -> Minimal.theory
val solver : t -> Solver.t
val atoms : t -> int list

val pp : Format.formatter -> t -> unit
val to_string : t -> string
