(** A fixed pool of [Domain.t] workers over a shared task queue.

    Workers have stable indices [0 .. jobs-1]; every task receives the index
    of the worker that runs it, which is how the batch layer binds each
    worker domain to its own (non-thread-safe) oracle engine: state indexed
    by worker is only ever touched from that worker's domain.

    A pool with [jobs <= 1] spawns no domains at all — [run] executes the
    tasks inline on the calling domain (as worker 0), so the single-job path
    is exactly the sequential one. *)

type t

val create : ?jobs:int -> unit -> t
(** A pool of [jobs] workers (default [Domain.recommended_domain_count ()],
    the hardware parallelism the runtime reports).  [jobs] is clamped to at
    least 1. *)

val jobs : t -> int

val run :
  ?cancel_on_error:Ddb_budget.Budget.group -> t -> (int -> unit) list -> unit
(** [run t tasks] submits the tasks and blocks until all of them have
    finished; each task is applied to the index of the worker executing it.
    Exception-safe join: every task runs to completion (or to its own
    exception) before [run] returns, and the first exception in submission
    order is then re-raised.  One submitter at a time: [run] must not be
    called concurrently from several domains on the same pool.

    [cancel_on_error]: the first task exception immediately cancels the
    given budget group (from the failing worker), so remaining tasks whose
    budget tokens joined the group degrade to [Cancelled] at their next
    probe instead of running to completion — the pool still drains every
    task before re-raising. *)

val run_pinned :
  ?cancel_on_error:Ddb_budget.Budget.group ->
  t ->
  (int -> unit) list array ->
  unit
(** [run_pinned t per_worker] — [per_worker] must have exactly [jobs t]
    slots; the tasks in slot [w] run on worker [w] (in list order) and
    nowhere else.  Same blocking, drain-then-raise and [cancel_on_error]
    contract as {!run}.  Use when task→worker placement itself must be
    deterministic — e.g. so a trace's per-worker ([tid]) event streams
    don't depend on domain scheduling.  On a single-job pool the slots run
    inline in worker order. *)

val shutdown : t -> unit
(** Stop the workers and join their domains.  Idempotent; the pool cannot
    be used afterwards. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], apply, [shutdown] — shutdown runs even on exceptions. *)
