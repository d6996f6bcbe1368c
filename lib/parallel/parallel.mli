(** Order-stable data-parallel mapping over a {!Pool}.

    Every item writes its result into its own index slot; the slots are
    read back in index order after the join.  Results are therefore
    identical for every job count and placement — which worker computed an
    item never shows in the output — and a deterministic mapping function
    makes the whole map deterministic. *)

val map_chunked :
  ?jobs:int -> ?chunk_size:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_chunked f xs] maps [f] over [xs] on an ephemeral pool of [jobs]
    workers (default {!Pool.create}'s), preserving order: {!map_in}
    without pinning. *)

val map_in :
  Pool.t ->
  ?pinned:bool ->
  ?cancel_on_error:Ddb_budget.Budget.group ->
  ?chunk_size:int ->
  (worker:int -> 'a -> 'b) ->
  'a list ->
  'b list
(** Same, on an existing pool; the mapping function additionally receives
    the index of the worker running it — the hook the batch layer uses to
    pick the worker's own engine shard.

    By default each pool task maps a contiguous chunk of [chunk_size]
    items; the default size aims at ~4 chunks per worker so the queue
    load-balances uneven task costs.  [pinned] (default [false]) instead
    runs item [k] on worker [k mod jobs] (one {!Pool.run}[ ~pinned:true]
    task per worker; [chunk_size] is ignored): placement is a pure
    function of the input, so the per-worker event streams an active
    {!Ddb_obs.Trace} records do not depend on scheduling.  Output order
    and content do not depend on [pinned]; throughput is worse on uneven
    workloads (no work stealing) — pin only when placement determinism
    matters.

    [cancel_on_error] is passed to {!Pool.run}: the first task exception
    cancels the group so remaining budget-tokened tasks degrade instead of
    running on.  After the join the exception of the lowest failing item
    is re-raised, pinned or not. *)
