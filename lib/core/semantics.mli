open Ddb_logic
open Ddb_db

(** The uniform face of a disjunctive database semantics: a packed record of
    the three decision problems the paper studies (literal inference,
    formula inference, model existence), the witness search behind them,
    plus a reference engine. *)

type model = Two_valued of Interp.t | Three_valued of Three_valued.t
(** An intended model: two-valued, or 3-valued for PDSM. *)

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

val two_valued : Interp.t option -> model option

val for_query : Db.t -> Formula.t -> Db.t
(** Pad the database universe so every query atom is a legal atom id. *)

val at_total :
  ?part:Partition.t -> ('q -> Formula.t) ->
  (Db.t -> Partition.t -> 'q -> 'a) -> Db.t -> 'q -> 'a
(** [at_total ?part formula_of k db q] runs a partition-parametric
    procedure the way the registry packs it.  Without [part], [k] gets
    [db] padded for the query ({!for_query} of [formula_of q]), the total
    partition ⟨V;∅;∅⟩ of the padded universe, and [q]: this is how GCWA and
    EGCWA are CCWA and ECWA.  With [part], [k] gets [db] padded to
    [part]'s universe, [part] and [q].  Applied to [k], it picks its
    branch once. *)

val at_total_db :
  ?part:Partition.t -> (Db.t -> Partition.t -> 'a) -> Db.t -> 'a
(** {!at_total} for a question without a query. *)

val parametric :
  ?part:Partition.t -> name:string -> long_name:string ->
  applicable:(Db.t -> bool) -> has_model:(Db.t -> bool) ->
  infer_formula:(Db.t -> Partition.t -> Formula.t -> bool) ->
  infer_literal:(Db.t -> Partition.t -> Lit.t -> bool) ->
  witness:(Db.t -> Partition.t -> Formula.t -> Interp.t option) ->
  (Db.t -> Partition.t -> Interp.t list) -> t
(** The record of a partition-parametric semantics (CCWA, ECWA, CIRC,
    ICWA) from its ⟨P;Q;Z⟩ procedures and reference model set, each
    packed at [part] by {!at_total} or {!at_total_db}. *)

val via_engine : ?part:Partition.t -> Ddb_engine.Engine.t -> t -> t
(** The answer memo for semantics whose procedures the engine does not
    decompose: each decision problem's answer is memoized under the
    database's canonical key and [part]
    ({!Ddb_engine.Engine.cached_bool}), so an answer at one partition is
    never served at another; the witness search is left as it is.  It
    attributes nothing: the registry's wrapper ([Fastpath.wrap]) runs
    every field in the record's scope.  The closed-world family calls the
    engine's oracle ops directly instead. *)
