(** Oracle-call counters for the empirical complexity harness.
    [Solver.solve] bumps the SAT counter; the Σ₂ᵖ oracles in higher layers
    bump the sigma2 counter.  The solver also mirrors its search effort
    (conflicts, decisions, propagations) here so scoped instrumentation —
    e.g. the memoizing oracle engine — can attribute solver work without a
    handle on every solver instance.

    The counters are {e domain-local} (one independent set per [Domain.t]):
    a worker domain of the parallel batch layer only ever observes its own
    solver work, so snapshot/delta windows stay exact under domain
    parallelism.  Cross-domain aggregation happens one layer up, in
    {!Ddb_engine.Engine.merge_stats}. *)

val bump_sat : unit -> unit
val bump_sigma2 : unit -> unit
val bump_conflict : unit -> unit
val bump_decision : unit -> unit
val bump_propagation : unit -> unit

type counters = private {
  mutable sat : int;
  mutable sigma2 : int;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
}

val counters : unit -> counters
(** The calling domain's live counters, read in place.  A caller that
    marks these fields and later takes [live − mark] measures a window
    without allocating; {!snapshot}/{!delta} are the same window as
    records. *)

type snapshot = {
  sat : int;
  sigma2 : int;
  conflicts : int;
  decisions : int;
  propagations : int;
}

val snapshot : unit -> snapshot
(** The calling domain's counters. *)

val delta : snapshot -> snapshot
(** Counts accumulated in the calling domain since the snapshot. *)
