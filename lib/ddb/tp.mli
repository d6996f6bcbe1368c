open Ddb_logic

(** The DDR consequence operator T_DB on states (sets of positive
    disjunctions) and its fixpoint T↑ω, for DDDBs.

    @raise Invalid_argument from every entry point if the database contains
    negation. *)

val occurrence_closure : Db.t -> Interp.t
(** Atoms occurring in T↑ω, in linear time: the {!Ddb_sat.Horn.least_model}
    of the split program P_V = {!Possible.projected_program} on the full
    interpretation (the tractable core of DDR/WGCWA and PWS negative-literal
    inference, and the least model of a definite database). *)

val fixpoint : ?max_states:int -> Db.t -> Interp.Set.t
(** The explicit state fixpoint, without subsumption (reference engine;
    exponential in the worst case — guarded by [max_states]). *)

val occurring_in_fixpoint : Db.t -> Interp.t
(** Union of the explicit fixpoint's disjunctions (tested equal to
    [occurrence_closure]). *)

val minimal_state : Db.t -> Interp.Set.t
(** Subsumption-minimal derivable disjunctions — for consistent DDDBs these
    are the minimal positive clauses entailed (Minker). *)
