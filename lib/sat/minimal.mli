open Ddb_logic

(** Minimal models w.r.t. the (P;Z)-preorder via SAT oracle calls — the
    engine behind GCWA, EGCWA, CCWA, ECWA/CIRC and the stable-model check. *)

type theory
(** A CNF over a fixed universe, compiled once.  The first solver asked of
    it builds the {e image}: [Solver.of_clauses] over the clauses, never
    solved.  Every solver handed out afterwards is a {!Solver.copy} of the
    image, so all searches on one theory value share one construction.  A
    theory value must stay within one domain. *)

val theory : num_vars:int -> Lit.t list list -> theory
(** Cheap: the image is built on first use, under a [sat.compile] trace
    span. *)

val solver_of : theory -> Solver.t
(** A fresh solver over the theory: a copy of the image, in exactly the
    state [Solver.of_clauses] would build.  The image itself is never
    handed out, so it is never solved. *)

val is_minimal_with : Solver.t -> Partition.t -> Interp.t -> bool
val is_minimal : theory -> Partition.t -> Interp.t -> bool
(** Is the given model (P;Z)-minimal?  Exactly one SAT call. *)

val minimize : theory -> Partition.t -> Interp.t -> Interp.t
(** Descend from a model to some minimal model below it. *)

val find_minimal : theory -> Partition.t -> Interp.t option
(** Some (P;Z)-minimal model, or [None] when the theory is inconsistent. *)

val cone_blocking : Partition.t -> Interp.t -> Lit.t list
(** Clause excluding the cone {N : N∩Q = m∩Q, N∩P ⊇ m∩P}. *)

type verdict =
  | Pass
  | Fail
  | Refute of Lit.t list list
      (** The model fails, and every model passing the check satisfies
          this DNF (a list of terms, each a conjunction of literals over
          the universe). *)
(** A check's verdict on a minimal model.  A search or harvest adds a
    refutation to its candidate solver only (one clause over the terms, an
    auxiliary per term of two or more literals), so it removes only
    candidates the check rejects; the minimizer and the minimality checker
    keep the theory. *)

val add_dnf : Solver.t -> Lit.t list list -> unit
(** Assert a DNF on a solver, as a search learns a refutation: a model of
    the solver's clauses satisfies some term, and every interpretation
    satisfying a term extends to the added auxiliaries. *)

val find_minimal_such_that :
  ?extra:Lit.t list list ->
  ?check:(Interp.t -> verdict) ->
  theory ->
  Partition.t ->
  Interp.t option
(** Guess-and-check search for a (P;Z)-minimal model of the theory
    additionally satisfying the [extra] clauses (which may mention auxiliary
    atoms beyond the universe — they float like Z-atoms) and passing
    [check] (default: every model).  Candidates are minimized within
    theory ∧ extra, screened by one plain-minimality oracle call (skipped
    without [extra]) and by [check], with cone blocking and [check]'s
    refutations learned by the candidate solver; this is the Σ₂ᵖ
    guess-and-check loop of the paper's upper bounds.  [check] sees one
    model per minimal (P,Q)-section, so it must give the same verdict on
    models that differ only on Z; it always does under the total
    partition.  The model found charges the ambient {!Ddb_budget.Budget}
    enumeration cap. *)

val harvest :
  ?check:(Interp.t -> verdict) ->
  theory ->
  Partition.t ->
  pos:Interp.t ->
  neg:Interp.t ->
  Interp.t * Interp.t
(** [(t, f)]: the atoms of [pos] true, and the atoms of [neg] false, in
    some (P;Z)-minimal model passing [check] (default: every model); both
    [empty] when the theory is inconsistent.  With [pos = P], [neg = ∅]
    and no [check], [t] is the support set
    S = \{x ∈ P : x true in some (P;Z)-minimal model\}.  One candidate solver and one
    minimizer serve the whole harvest: each round asks for a model with a
    still-missing target literal outside the blocked cones, descends from
    it to a minimal model in the plain theory, adds that model's target
    literals if it passes [check] (or learns [check]'s refutation) and
    blocks its cone.  No plain-minimality
    check is needed.  The targets must lie in P ∪ Q and [check] must give
    one verdict per minimal (P,Q)-section; under the total partition both
    always hold.  The rounds number at most the distinct minimal
    (P,Q)-sections plus one. *)

val all_minimal : theory -> Partition.t -> Interp.t list
(** One (P;Z)-minimal model per minimal (P,Q)-section, each completed on Z
    by the solver — all ⊆-minimal models under the total partition.  The
    same loop as {!find_minimal_such_that}, run to the end; each model
    charges the ambient {!Ddb_budget.Budget} enumeration cap, the one cap
    on its length. *)

val minimal_of_models : Partition.t -> Interp.t list -> Interp.t list
(** Reference filter: the (P;Z)-minimal elements of an explicit model list. *)
