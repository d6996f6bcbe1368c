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
  ('q -> Formula.t) -> (Db.t -> Partition.t -> 'q -> 'a) -> Db.t -> 'q -> 'a
(** [at_total formula_of k db q] runs a partition-parametric procedure the
    way the registry packs it: [k] gets [db] padded for the query
    ({!for_query} of [formula_of q]), the total partition ⟨V;∅;∅⟩ of the
    padded universe, and [q].  This is how GCWA and EGCWA are CCWA and
    ECWA. *)

val via_engine : Ddb_engine.Engine.t -> t -> t
(** Route the semantics through the memoizing oracle engine: each decision
    problem runs inside an {!Ddb_engine.Engine.scoped} bucket named after
    the semantics and its answer is memoized under the database's canonical
    key; the witness search runs in the same scope.  Used by the modules
    whose procedures the engine does not decompose; the closed-world family
    defines deeper [semantics_in] integrations instead. *)
