open Ddb_logic
open Ddb_db

(** Shared memoizing oracle engine.

    All ten semantics of the paper bottom out in the same primitive oracle
    queries (satisfiability, minimal-model checks, support sets,
    minimal-model enumeration).  An {!t} canonicalizes theories into
    hash-consed keys, fronts each with a single incremental assumption-based
    {!Solver.t}, memoizes the expensive oracles, and instruments everything
    (oracle calls, cache hits/misses, SAT effort, wall time — attributable
    per semantics via {!scoped}).

    Each oracle op has a single implementation.  A cache-disabled engine
    ([create ~cache:false]) runs it without the memo tables and with a fresh
    per-op theory state instead of the shared solver — the paper's
    algorithms as stated, one fresh solver per oracle question.  It is the
    baseline configuration the differential tests and the bench harness
    compare against. *)

type t

val create : ?cache:bool -> ?fastpath:bool -> ?profile:bool -> unit -> t
(** A fresh engine; [cache] defaults to [true].  [fastpath] (default
    [true]) gates the fragment fast-path dispatch layer of
    [Ddb_core.Fastpath]: with it off every query runs the generic oracle
    path — the ablation baseline.  [profile] (default [false]) turns on
    per-oracle-kind latency histograms and hit/miss counters in the
    engine's {!Ddb_obs.Metrics} registry; with it off — and no trace
    active — every oracle op pays a single boolean test. *)

val cache_enabled : t -> bool
val fastpath_enabled : t -> bool

val reset : t -> unit
(** Drop all caches, shared solvers and statistics. *)

val theory_key : t -> Db.t -> int
(** Hash-consed id of the database's canonicalized clause set.  Two
    databases with the same universe and the same clauses (up to literal
    and clause order and duplication) share a key. *)

(** {1 Oracle operations}

    Each operation counts as one engine oracle call.  Cached engines answer
    repeats from the memo tables and run fresh queries on the theory's
    shared incremental solver; uncached engines run the same procedure on
    a fresh per-op solver. *)

val sat : t -> Db.t -> bool
(** DB consistency — one SAT call. *)

val augmented_has_model : t -> Db.t -> Interp.t -> bool
(** [DB ∪ {¬x : x ∈ negs}] has a model (negations as assumptions). *)

val augmented_witness : t -> Db.t -> Interp.t -> Formula.t -> Interp.t option
(** A model of [DB ∪ {¬x : x ∈ negs}] satisfying [F], if any — one SAT call
    with the negations and [F]'s Tseitin output as assumptions, memoized
    (op [aug_entails]).  The universe is padded to cover [F]. *)

val augmented_entails : t -> Db.t -> Interp.t -> Formula.t -> bool
(** [DB ∪ {¬x : x ∈ negs} ⊨ F]: [augmented_witness] of [¬F] is [None]. *)

val support_set : t -> Db.t -> Partition.t -> Interp.t
(** [{x ∈ P : x true in some (P;Z)-minimal model}] — memoized per
    (theory, partition); the closed-world family's hot oracle. *)

val negated_atoms : t -> Db.t -> Partition.t -> Interp.t
(** [P ∖ support_set] — the atoms GCWA/CCWA negate. *)

val in_some_minimal : t -> Db.t -> Partition.t -> int -> bool
(** Is the atom true in some (P;Z)-minimal model?  Cached engines answer
    from the memoized support set; uncached engines issue the paper's one
    constrained minimal-model query.  The atom must belong to [P]. *)

val minimal_models :
  ?limit:int -> ?truncated:bool ref -> t -> Db.t -> Interp.t list
(** All ⊆-minimal models (total partition).  Unlimited enumerations are
    memoized; limited ones are caller-specific and never cached.  When
    [limit] cuts the enumeration short, [truncated] (if given) is set to
    [true] (see {!Ddb_sat.Minimal.all_minimal}). *)

val minimal_witness :
  ?part:Partition.t -> t -> Db.t -> Formula.t -> Interp.t option
(** A (P;Z)-minimal model satisfying [F] (default partition: minimize
    everything), memoized (op [mm_entails]). *)

val minimal_entails : ?part:Partition.t -> t -> Db.t -> Formula.t -> bool
(** [MM(DB;P;Z) ⊨ F]: [minimal_witness] of [¬F] is [None]. *)

val non_entailed_atoms : t -> Db.t -> Interp.t
(** [{x : DB ⊭ x}] — Reiter's CWA closure set, n assumption solves. *)

val cached_bool :
  ?part:Partition.t ->
  ?formula:Formula.t ->
  ?arg:int ->
  t ->
  sem:string ->
  op:string ->
  Db.t ->
  (unit -> bool) ->
  bool
(** Generic per-semantics decision memo for procedures the engine does not
    decompose: canonicalizes the database, keys on
    [(sem, op, part, formula, arg)], instruments, and delegates to the
    thunk on a miss (or always, for uncached engines). *)

(** {1 Fragment classification and fast paths}

    The syntactic fragment classifier ({!Ddb_frag.Frag}) runs once per
    hash-consed theory on cached engines (per query on uncached engines,
    which keep no tables) and its result — including the lazily computed
    canonical models — is shared by every subsequent query on that theory.
    The dispatch layer in [Ddb_core.Fastpath] consults it to route
    tractable (semantics, problem, fragment) cells to polynomial
    algorithms. *)

val classify : t -> Db.t -> Ddb_frag.Frag.info
(** Cached classification of the database's theory.  Bumps the
    [classifications] counter only when a classification actually runs. *)

val fastpath_hit :
  t -> op:string -> Db.t -> (unit -> 'a) -> 'a
(** Run a polynomial fast-path evaluation: counts one [fastpath_hits],
    fires one budget probe (like every oracle op), and — under tracing or
    profiling — emits a [fastpath.<op>] span / latency observation and the
    [fastpath.hit] metrics counter.  Call inside {!scoped} so the hit is
    attributed to its semantics. *)

val fastpath_miss : t -> unit
(** Record that the dispatch layer fell through to the generic oracle
    path ([fastpath_misses] counter; [fastpath.miss] metric while
    profiling). *)

(** {1 Budgeted (three-valued) evaluation} *)

type answer = Ddb_budget.Budget.answer =
  | True
  | False
  | Unknown of Ddb_budget.Budget.reason
      (** Re-exported so engine clients need not name [Ddb_budget]. *)

val budgeted :
  ?retry:bool ->
  ?group:Ddb_budget.Budget.group ->
  t ->
  Ddb_budget.Budget.limits ->
  sem:string ->
  (unit -> bool) ->
  answer
(** [budgeted t limits ~sem f] mints a budget token, runs [f] under it in
    the [sem] scope, and degrades to [Unknown] when the budget trips.
    Only definite answers can have been memoized (the trip unwinds before
    any cache write); each degraded evaluation bumps the [unknowns]
    counter (total and per-[sem]) and — while profiling — the
    [budget.exhausted] metrics counter.  [retry] (default [false]) is
    {!Ddb_budget.Budget.run}'s retry ladder: a [Budget_exhausted] answer is
    retried once with every cap escalated 4x (counted under
    [budget.retry]).  [group] joins the token to a cancellation group. *)

(** {1 Instrumentation} *)

val scoped : t -> string -> (unit -> 'a) -> 'a
(** [scoped t name f] runs [f], attributing solver effort ({!Stats} deltas)
    and wall time to the per-semantics bucket [name].  Nested scopes keep
    attributing to the outermost one.  While a {!Ddb_obs.Trace} is active,
    the outermost scope is also emitted as a top-level [scope.<name>] span
    — the per-semantics lane the [engine.<op>] spans nest under. *)

val metrics : t -> Ddb_obs.Metrics.t
(** The engine's metrics registry: histogram [engine.<op>] (latency in
    {!Ddb_obs.Trace.metric_unit} units) and counters
    [engine.<op>.hits]/[.misses] per oracle kind, populated while
    profiling is on. *)

val metrics_json : t -> string
(** {!Ddb_obs.Metrics.to_json} of {!metrics} — emit alongside
    {!stats_json}. *)

val merged_metrics_json : t list -> string
(** Shards merged with {!Ddb_obs.Metrics.merge}, same schema. *)

type stats = {
  scope : string;
  oracle_calls : int;
  cache_hits : int;
  cache_misses : int;
  sat_solve_calls : int;
  sigma2_queries : int;
  sat_conflicts : int;
  sat_decisions : int;
  sat_propagations : int;
  fastpath_hits : int;  (** queries answered by a polynomial fast path *)
  fastpath_misses : int;  (** dispatch fall-throughs to the generic path *)
  classifications : int;  (** fragment classifications actually computed *)
  unknowns : int;  (** budgeted evaluations that degraded to [Unknown] *)
  wall_ms : float;
}

val totals : t -> stats
val per_scope : t -> stats list
(** Per-semantics buckets, sorted by scope name. *)

(** {2 Cross-shard aggregation}

    The parallel batch layer ([Ddb_parallel]) runs one engine per worker
    domain; these fold the shards' records field-wise so instrumentation
    sums correctly and the JSON schema is unchanged. *)

val merge_stats : t list -> stats
(** Field-wise sum of every engine's {!totals} (scope ["total"]). *)

val merge_per_scope : t list -> stats list
(** Per-semantics buckets summed across the engines, sorted by scope. *)

val merged_stats_json : t list -> string
(** Same schema as {!stats_json}: [cache] holds iff every shard caches,
    [theories] sums the shards' hash-consed key counts. *)

val pp_stats : Format.formatter -> stats -> unit

val json_of_stats : stats -> string

val stats_json : t -> string
(** The full stats record as JSON:
    [{"cache":bool,"theories":int,"total":{…},"per_semantics":{name:{…}}}].
    Schema documented in EXPERIMENTS.md. *)
