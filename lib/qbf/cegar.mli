(** CEGAR 2-QBF solver on top of the CDCL SAT solver — the realization of
    the Σ₂ᵖ oracle.  Every validity query bumps
    [Ddb_sat.Stats.bump_sigma2].  *)

exception Too_many_rounds

val valid : ?max_rounds:int -> Qbf.t -> bool
(** Validity of a 2-QBF.  ∃X ∀Y φ runs the CEGAR loop directly: φ's
    top-level conjuncts without a Y atom are asserted into the
    abstraction before the first round, the check solver holds the
    clauses of the other conjuncts' negation, built on first need, and
    each refinement adds those conjuncts' clauses instantiated under the
    counterexample to the abstraction.  ∀X ∃Y φ is answered as the
    negation of ∃X ∀Y ¬φ.  Either way the call bumps
    [Ddb_sat.Stats.bump_sigma2] exactly once.
    @raise Too_many_rounds when the loop reaches [max_rounds] rounds
    (default: unbounded); 2^|X| + 1 rounds always suffice. *)
