(** Order-stable data-parallel mapping over a {!Pool}.

    Item [k] runs on worker [k mod jobs] and writes its result into its own
    index slot; the slots are read back in index order after the join.
    Results are therefore identical for every job count — which worker
    computed an item never shows in the output — and a deterministic
    mapping function makes the whole map deterministic.  Placement is a
    pure function of the input, so the per-worker event streams an active
    {!Ddb_obs.Trace} records do not depend on scheduling either; the price
    is that uneven item costs are not rebalanced across workers. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] maps [f] over [xs] on an ephemeral pool of [jobs] workers
    (default {!Pool.create}'s), preserving order. *)

val map_in :
  Pool.t ->
  ?cancel_on_error:Ddb_budget.Budget.group ->
  (worker:int -> 'a -> 'b) ->
  'a list ->
  'b list
(** Same, on an existing pool; the mapping function additionally receives
    the index of the worker running it — the hook the batch layer uses to
    pick the worker's own engine shard.

    [cancel_on_error] is passed to {!Pool.run}: the first exception cancels
    the group so the other workers' budget-tokened items degrade instead of
    running on.  A worker stops at its first failing item; after the join
    the exception of the lowest failing item is re-raised. *)
