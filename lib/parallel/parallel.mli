(** Order-stable data-parallel mapping over a {!Pool}.

    Inputs are split into index-tagged chunks; each chunk is one pool task
    and writes its mapped slice into its own slot; the slots are reassembled
    by chunk position after the join.  Results are therefore identical for
    every job count — which worker computed a chunk never shows in the
    output — and a deterministic mapping function makes the whole map
    deterministic. *)

val map_chunked :
  ?jobs:int -> ?chunk_size:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_chunked f xs] maps [f] over [xs] on an ephemeral pool of [jobs]
    workers (default {!Pool.create}'s), preserving order.  The
    default [chunk_size] aims at ~4 chunks per worker so the queue
    load-balances uneven task costs. *)

val map_chunked_in :
  Pool.t ->
  ?cancel_on_error:Ddb_budget.Budget.group ->
  ?chunk_size:int ->
  (worker:int -> 'a -> 'b) ->
  'a list ->
  'b list
(** Same, on an existing pool; the mapping function additionally receives
    the index of the worker running it — the hook the batch layer uses to
    pick the worker's own engine shard.  [cancel_on_error] is passed to
    {!Pool.run}: the first chunk exception cancels the group so remaining
    budget-tokened chunks degrade instead of running on. *)

val map_pinned_in :
  Pool.t ->
  ?cancel_on_error:Ddb_budget.Budget.group ->
  (worker:int -> 'a -> 'b) ->
  'a list ->
  'b list
(** Like {!map_chunked_in} but item [k] always runs on worker [k mod jobs]
    (via {!Pool.run_pinned}): placement is a pure function of the input, so
    the per-worker event streams an active {!Ddb_obs.Trace} records do not
    depend on scheduling.  Output order and content are identical to
    {!map_chunked_in}; throughput is worse on uneven workloads (no work
    stealing) — use only when placement determinism matters. *)
