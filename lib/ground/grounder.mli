open Ddb_logic

(** Herbrand grounding of safe disjunctive Datalog into the propositional
    core.

    Ground atoms are named ["p(c1,...,ck)"] in the resulting vocabulary.
    The grounder restricts the universe to the {e possible facts} (the
    least fixpoint over heads, ignoring negation): atoms outside it can
    never be derived, and the closed-world semantics of this library all
    make them false — so negative literals on impossible atoms are
    simplified away and such atoms are not part of the ground universe.
    (For plain classical entailment over the full Herbrand base, ground
    with facts naming every relevant atom.) *)

exception Error of string

type t = {
  db : Ddb_db.Db.t;
  vocab : Vocab.t;
  constants : string list;
}

val of_string : ?max_ground_rules:int -> string -> t
(** Parse and ground.  @raise Error / @raise Parse.Error accordingly. *)

val of_file : ?max_ground_rules:int -> string -> t

val atom_id : t -> string -> string list -> int option
(** Propositional id of [pred(args)], if the atom is in the ground
    universe. *)

val holds_in : t -> Interp.t -> string -> string list -> bool
(** Truth of a ground atom in a propositional interpretation (false when
    outside the universe). *)
