open Ddb_logic
open Ddb_db

(** Shared memoizing oracle engine.

    All ten semantics of the paper bottom out in the same primitive oracle
    queries (satisfiability, minimal-model checks, support sets,
    minimal-model enumeration).  An {!t} canonicalizes theories into
    hash-consed keys, compiles each theory once (every solver over its
    clauses is a copy of one never-solved image), fronts each with a single
    incremental assumption-based {!Solver.t}, memoizes the expensive
    oracles, and instruments everything (oracle calls, cache hits/misses,
    SAT effort, wall time — attributable per semantics via {!scoped}).

    Each oracle op has a single implementation.  A cache-disabled engine
    ([create ~cache:false]) runs it without the memo tables and with a fresh
    per-op theory state instead of the shared solver — the paper's
    algorithms as stated, one fresh solver per oracle question.  It is the
    baseline configuration the differential tests and the bench harness
    compare against. *)

type t

val create : ?cache:bool -> ?fastpath:bool -> unit -> t
(** A fresh engine; [cache] defaults to [true].  [fastpath] (default
    [true]) gates the fragment fast-path dispatch layer of
    [Ddb_core.Fastpath]: with it off every query runs the generic oracle
    path — the ablation baseline.  With no {!Ddb_obs.Trace} active every
    oracle op's probe is a single boolean test. *)

val cache_enabled : t -> bool
val fastpath_enabled : t -> bool

val reset : t -> unit
(** Drop all caches, compiled theories, shared solvers, the remembered
    database and statistics. *)

val theory_key : t -> Db.t -> int
(** Hash-consed id of the database's canonicalized clause set.  Two
    databases with the same universe and the same clauses (up to literal
    and clause order and duplication) share a key.  The engine remembers
    the last database it keyed: the same physical value again costs one
    comparison, not a canonicalization. *)

type op
(** A semantics' op name, [<semantics>/<problem>] (["pws/literal"]), with
    its [engine.<op>] and [fastpath.<op>] trace span names interned once.
    A record makes its ops when it is built, so a traced question interns
    nothing. *)

val op : string -> op
(** The op of that name ({!Ddb_obs.Trace.name} twice: intern once per
    record, not per question). *)

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
    with the negations and [F]'s named literal as assumptions, memoized
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

val consequences :
  t -> op:op -> Db.t ->
  (Ddb_sat.Minimal.theory -> Interp.t -> Ddb_sat.Minimal.verdict) ->
  (Interp.t * Interp.t) option
(** [Some (brave_true, brave_false)]: the atoms true, and the atoms false,
    in some ⊆-minimal model [m] of the database that [check theory]
    passes — its intended models, for a semantics whose models are the
    minimal models passing [check].  One {!Ddb_sat.Minimal.harvest} with
    every ±x as a target on the database's compiled [theory], which
    [check] gets so that a solver it needs is a copy of the same image,
    learning [check]'s refutations; memoized per
    (theory, [op]) (op [<semantics>/intended]).  The
    answer is [None] on uncached engines, which keep one search per
    question, and on a theory's first question under [op]: a one-shot
    question costs its caller's own search, and the harvest is built from
    the second question on. *)

val harvested :
  t -> op:op -> Db.t -> (Interp.t * Interp.t) option
(** The set {!consequences} memoized under [op] for this theory, if a
    question already built it; [None] otherwise and on uncached engines.
    It neither builds the set nor marks a first question, and it is not an
    oracle op (no tick, no hit). *)

val minimal_witness :
  ?part:Partition.t -> t -> Db.t -> Formula.t -> Interp.t option
(** A (P;Z)-minimal model satisfying [F] (default partition: minimize
    everything), memoized (op [mm_entails]). *)

val non_entailed_atoms : t -> Db.t -> Interp.t
(** [{x : DB ⊭ x}] — Reiter's CWA closure set, n assumption solves. *)

val cached_bool :
  ?part:Partition.t -> ?formula:Formula.t -> t -> op:op -> Db.t ->
  (unit -> bool) -> bool
(** Generic per-semantics decision memo for procedures the engine does not
    decompose: canonicalizes the database, keys on [(op, part, formula)],
    instruments (an [engine.<op>] span), and delegates to the thunk on a
    miss (or always, for uncached engines).  [op] names the semantics and
    the problem, [<semantics>/<problem>] (["pws/literal"]). *)

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
  t -> op:op -> Db.t -> ('a -> 'b -> 'c -> 'd) -> 'a -> 'b -> 'c -> 'd
(** [fastpath_hit t ~op db f a b c] runs the polynomial fast-path
    evaluation [f a b c]: counts one [fastpath_hits], fires one budget
    probe (like every oracle op), and — under tracing — emits a
    [fastpath.<op>] span around it.  The evaluation and its arguments come
    apart so an untraced hit builds no thunk.  Call inside {!scoped} so the
    hit is attributed to its semantics. *)

val fastpath_miss : t -> unit
(** Record that the dispatch layer fell through to the generic oracle
    path ([fastpath_misses] counter). *)

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
(** [budgeted t limits ~sem f] mints a budget token, runs [f] under it,
    and degrades to [Unknown] when the budget trips.  It opens no scope:
    [sem] only names the per-semantics bucket whose [unknowns] counter a
    degraded evaluation bumps (with the total's).  The work [f] does is
    attributed by whatever it calls; a registry record scopes every field
    itself.  Only definite answers can have been memoized (the trip
    unwinds before any cache write).  [retry] (default [false]) is
    {!Ddb_budget.Budget.run}'s retry ladder: a [Budget_exhausted] answer is
    retried once with every cap escalated 4x.  [group] joins the token to
    a cancellation group. *)

(** {1 Instrumentation} *)

type scope
(** A scope handle: a per-semantics bucket name resolved once.  It carries
    an id that indexes every engine's bucket array, the name, and the
    interned [scope.<name>] trace span name, so opening a scope hashes no
    string. *)

val scope : string -> scope
(** The handle of that name.  Handles are interned in one process-wide,
    lock-guarded table: the same name always gives the same handle, from
    any domain, so a record wrapped afresh per question (a ⟨P;Q;Z⟩ record
    from [Registry.find_in ~part]) adds no handle and no bucket.  Resolve
    it once, when a record is made. *)

val scopes_interned : unit -> int
(** How many distinct scope names the process has interned. *)

val scoped : t -> scope -> (t -> 'a -> 'b -> 'c) -> 'a -> 'b -> 'c
(** [scoped t h f a b] runs [f t a b], attributing solver effort and wall
    time to [h]'s per-semantics bucket and to the total.  The body and
    its arguments come apart so a caller passes a function made once, not
    a closure per question; with them, a scope allocates nothing but its
    wall-time sums.  The outermost scope marks the domain's {!Stats}
    counters and the clock when it opens and credits [live − mark] when
    it closes.  Nested scopes keep attributing to the outermost one.  When
    [f] raises (a budget trip, say), its work is credited all the same and
    the scope is closed before the exception goes on.  Its one caller in
    [Ddb_core] is the registry's wrapper ([Fastpath.wrap]), which runs
    every field of every semantics record in the record's own scope.
    While a {!Ddb_obs.Trace} is active, the outermost scope is also
    emitted as a top-level [scope.<name>] span — the per-semantics lane
    the [engine.<op>] spans nest under.  Each [engine.<op>] span's end
    event carries [cache_hit] (whether that op's own memo lookup answered,
    whatever ops nested in its compute did); a span whose op raised ends
    with [unwound] instead. *)

(** The engine's one counter record: its total and each semantics' bucket.
    The same record is the per-engine, per-scope and merged view. *)
type stats = {
  scope : string;
  mutable oracle_calls : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable sat_solve_calls : int;
  mutable sigma2_queries : int;
  mutable sat_conflicts : int;
  mutable sat_decisions : int;
  mutable sat_propagations : int;
  mutable fastpath_hits : int;  (** queries answered by a polynomial fast path *)
  mutable fastpath_misses : int;  (** dispatch fall-throughs to the generic path *)
  mutable classifications : int;  (** fragment classifications actually computed *)
  mutable unknowns : int;  (** budgeted evaluations that degraded to [Unknown] *)
  mutable wall_ms : float;
}

val totals : t -> stats
(** A copy of the engine total (scope ["total"]): later work does not
    change it. *)

val per_scope : t -> stats list
(** Copies of the per-semantics buckets, sorted by scope name. *)

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

val stats_json : t -> string
(** The full stats record as JSON:
    [{"cache":bool,"theories":int,"total":{…},"per_semantics":{name:{…}}}].
    Schema documented in EXPERIMENTS.md. *)
