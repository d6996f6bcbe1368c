open Ddb_logic
open Ddb_db

(** The uniform face of a disjunctive database semantics: a record of the
    three decision problems the paper studies (literal inference, formula
    inference, model existence), the witness search behind them, plus a
    reference engine.

    A semantics is a constant {!spec}: one decision procedure per problem,
    each taking the oracle engine that answers its questions as its first
    argument.  {!bind} fixes the engine and gives the {!t} callers ask. *)

type model = Two_valued of Interp.t | Three_valued of Three_valued.t
(** An intended model: two-valued, or 3-valued for PDSM. *)

type spec = {
  name : string;
  long_name : string;
  applicable : Db.t -> bool;
  has_model : Ddb_engine.Engine.t -> Db.t -> bool;
  infer_formula : Ddb_engine.Engine.t -> Db.t -> Formula.t -> bool;
  infer_literal : Ddb_engine.Engine.t -> Db.t -> Lit.t -> bool;
  witness : Ddb_engine.Engine.t -> Db.t -> Formula.t -> model option;
  reference_models : Db.t -> Interp.t list;
}
(** A semantics as the modules of [Ddb_core] define it: the fields of {!t},
    each decision procedure and the witness search taking the engine
    first. *)

type t = {
  name : string;
  long_name : string;
  applicable : Db.t -> bool;
      (** Which databases the semantics is defined for (e.g. DDR and PWS need
          negation-free databases, ICWA a stratified one). *)
  has_model : Db.t -> bool;  (** SEM(DB) ≠ ∅. *)
  infer_formula : Db.t -> Formula.t -> bool;  (** SEM(DB) ⊨ F. *)
  infer_literal : Db.t -> Lit.t -> bool;  (** SEM(DB) ⊨ ℓ. *)
  witness : Db.t -> Formula.t -> model option;
      (** An intended model satisfying F (for PDSM: giving F the value 1),
          or [None].  It decides brave inference, and [witness db ¬F] is a
          counterexample to cautious F: every two-valued semantics answers
          [infer_formula db f] as [witness db (Formula.not_ f) = None]. *)
  reference_models : Db.t -> Interp.t list;
      (** Explicit model set by exhaustive enumeration (ground truth on
          small universes; exponential). *)
}

val bind : Ddb_engine.Engine.t -> spec -> t
(** The semantics asked on the given engine. *)

val two_valued : Interp.t option -> model option

val for_query : Db.t -> Formula.t -> Db.t
(** Pad the database universe so every query atom is a legal atom id. *)

val at_total :
  ?part:Partition.t -> ('q -> Formula.t) ->
  ('e -> Db.t -> Partition.t -> 'q -> 'a) -> 'e -> Db.t -> 'q -> 'a
(** [at_total ?part formula_of k e db q] runs a partition-parametric
    procedure the way a record asks it; [e] (the engine, in a {!spec}) is
    passed through.  Without [part], [k] gets [db] padded for the query
    ({!for_query} of [formula_of q]), the total partition ⟨V;∅;∅⟩ of the
    padded universe, and [q]: this is how GCWA and EGCWA are CCWA and
    ECWA.  With [part], [k] gets [db] padded to [part]'s universe, [part]
    and [q]; a database wider than [part]'s universe raises
    [Invalid_argument] naming both sizes.  Applied to [k], it picks its
    branch once. *)

val at_total_db :
  ?part:Partition.t -> ('e -> Db.t -> Partition.t -> 'a) -> 'e -> Db.t -> 'a
(** {!at_total} for a question without a query. *)

val parametric :
  ?part:Partition.t -> name:string -> long_name:string ->
  applicable:(Db.t -> bool) ->
  has_model:(Ddb_engine.Engine.t -> Db.t -> bool) ->
  infer_formula:(Ddb_engine.Engine.t -> Db.t -> Partition.t -> Formula.t -> bool) ->
  infer_literal:(Ddb_engine.Engine.t -> Db.t -> Partition.t -> Lit.t -> bool) ->
  witness:(Ddb_engine.Engine.t -> Db.t -> Partition.t -> Formula.t -> Interp.t option) ->
  (Db.t -> Partition.t -> Interp.t list) -> spec
(** The record of a partition-parametric semantics (CCWA, ECWA, CIRC,
    ICWA) from its ⟨P;Q;Z⟩ procedures and reference model set, each asked
    at [part] by {!at_total} or {!at_total_db}.  With [part], every field
    raises [Invalid_argument] on a database wider than [part]'s
    universe. *)

val via_engine : ?part:Partition.t -> spec -> spec
(** The answer memo for semantics whose procedures the engine does not
    decompose: each decision problem's answer is memoized under the
    database's canonical key and [part]
    ({!Ddb_engine.Engine.cached_bool}), so an answer at one partition is
    never served at another; the witness search is left as it is.  It
    attributes nothing: the registry's wrapper ([Fastpath.wrap]) runs
    every field in the record's scope.  The closed-world family calls the
    engine's oracle ops directly instead. *)

val screened :
  name:string -> long_name:string ->
  check:(Ddb_sat.Minimal.theory -> Db.t -> Interp.t -> Ddb_sat.Minimal.verdict) ->
  (Db.t -> Interp.t list) -> spec
(** [screened ~name ~long_name ~check reference_models]: the record of a
    semantics whose intended models are the ⊆-minimal models [m] that
    [check theory db] passes (PERF, DSM), [theory] being the compiled
    database the search runs on (a solver [check] needs may be a
    {!Ddb_sat.Minimal.solver_of} copy of it).  A refutation [check]
    returns is learned by the search's candidate solver.  Every question
    is one guess-and-check search
    ({!Ddb_sat.Minimal.find_minimal_such_that}), memoized by
    {!via_engine}.  On a cached engine a literal from a
    theory's second question on reads the consequences harvested under
    the op [<name>/intended] ({!Ddb_engine.Engine.consequences}: ¬x holds
    iff x is true in no intended model, x iff x is false in none), and
    existence reads such a harvest when one is memoized
    ({!Ddb_engine.Engine.harvested}); existence is true on positive DDBs
    without a search, where [check] must pass every minimal model. *)
