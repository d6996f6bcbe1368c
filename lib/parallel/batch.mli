open Ddb_logic
open Ddb_db

(** Domain-parallel batch evaluation over sharded oracle engines.

    {!Ddb_engine.Engine.t} is stateful and memoizing (hash-consed keys,
    per-theory incremental solvers) and not thread-safe, so a batch context
    owns one engine {e per pool worker}; every task runs against the engine
    of the worker executing it, and instrumentation is aggregated with
    {!Ddb_engine.Engine.merge_stats} so the stats JSON schema is unchanged.

    All sweeps are order-stable (index-tagged slots reassembled by
    position, see {!Parallel}): answers are bit-identical for every job
    count, and equal to [Budget.of_bool] of the sequential boolean
    [Registry.*_in] path — a qcheck property in [test/test_parallel.ml].

    Databases are shared across workers read-only; do not grow a database's
    vocabulary concurrently with a sweep. *)

type t

val engines : t -> Ddb_engine.Engine.t list

val with_batch :
  ?jobs:int ->
  ?cache:bool ->
  ?fastpath:bool ->
  ?pinned:bool ->
  (t -> 'a) ->
  'a
(** [with_batch f] runs [f] on a fresh batch context and shuts its pool
    down afterwards, also when [f] raises.  [jobs] defaults to
    {!Pool.create}'s; [cache] (default [true]) is the engines'
    memoization flag, as in {!Ddb_engine.Engine.create}.  [fastpath]
    (default [true]) gates the shards' fragment fast-path dispatch, as in
    {!Ddb_engine.Engine.create} — pass [false] for the generic-oracle
    ablation baseline.  [pinned] is accepted and ignored: every batch
    runs item [k] of a sweep on worker [k mod jobs] (see {!Parallel}), so
    answers, per-shard counters and per-worker trace streams are
    reproducible.  It is kept only for callers that still pass it, and
    goes with ROADMAP item 8's perfbench bullet. *)

(** {1 Sweeps}

    Every sweep answers three-valued: each cell runs the semantics' boolean
    query through {!Ddb_engine.Engine.budgeted} under its own fresh
    {!Ddb_budget.Budget} token minted from [limits] inside the task.
    [limits] defaults to {!Ddb_budget.Budget.no_limits}, under which every
    answer is definite (unless a cancellation or an injected fault trips)
    and equal to the boolean [Registry.*_in] answer.  Per-cell wall
    deadlines start when the cell starts; logical caps are context-free per
    cell.  Degraded cells answer [Unknown]; definite answers are exactly
    the unbudgeted ones.  [retry] is {!Ddb_budget.Budget.run}'s
    escalate-once ladder (default off).  [cancel_on_error] doubles as the
    cells' cancellation group: the first cell exception cancels it, so
    the other workers' remaining cells degrade to [Unknown Cancelled]
    instead of running on, and the sweep re-raises the lowest failing
    cell's exception once every worker has stopped.  With cache-disabled
    shards and purely logical caps the set of [Unknown] cells is
    identical at every job count.

    [sems] selects semantics by registry name and defaults to every
    semantics applicable to the database, in registry order.  Unknown names
    raise [Invalid_argument]. *)

val literal_sweep :
  t ->
  ?sems:string list ->
  ?limits:Ddb_budget.Budget.limits ->
  ?retry:bool ->
  ?cancel_on_error:Ddb_budget.Budget.group ->
  Db.t ->
  (string * (Lit.t * Ddb_engine.Engine.answer) list) list
(** Every ± literal of the universe under every selected semantics
    ([¬x] then [x], for [x = 0 .. n-1]) — the closed-world query workload
    of [ddbtool stats], one cell per (semantics, literal). *)

val all_semantics :
  t ->
  ?sems:string list ->
  ?limits:Ddb_budget.Budget.limits ->
  ?retry:bool ->
  ?cancel_on_error:Ddb_budget.Budget.group ->
  Db.t ->
  Formula.t ->
  (string * Ddb_engine.Engine.answer) list
(** Formula inference under every selected semantics, one cell each. *)

val exists_sweep :
  t ->
  ?sems:string list ->
  ?limits:Ddb_budget.Budget.limits ->
  ?retry:bool ->
  ?cancel_on_error:Ddb_budget.Budget.group ->
  Db.t ->
  (string * Ddb_engine.Engine.answer) list
(** Model existence under every selected semantics, one cell each. *)

(** {1 Merged instrumentation} *)

val totals : t -> Ddb_engine.Engine.stats
val per_scope : t -> Ddb_engine.Engine.stats list
val stats_json : t -> string
(** {!Ddb_engine.Engine.merged_stats_json} of the shards. *)

val reset : t -> unit
(** {!Ddb_engine.Engine.reset} every shard: counters to zero, caches and
    shared solvers dropped. *)
