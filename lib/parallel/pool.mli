(** A fixed pool of [Domain.t] workers that run one job at a time.

    Workers have stable indices [0 .. jobs-1]; a job is applied once on
    every worker, to that worker's index, which is how the batch layer binds
    each worker domain to its own (non-thread-safe) oracle engine: state
    indexed by worker is only ever touched from that worker's domain.

    A pool with [jobs <= 1] spawns no domains at all — [run] applies the job
    inline on the calling domain (as worker 0), so the single-job path is
    exactly the sequential one. *)

type t

val max_jobs : int
(** The most workers a pool can have: the runtime's domain limit less the
    calling domain (127 on 64-bit OCaml 5.1). *)

val create : ?jobs:int -> unit -> t
(** A pool of [jobs] workers (default [Domain.recommended_domain_count ()],
    the hardware parallelism the runtime reports).  [jobs] is clamped to at
    least 1; above {!max_jobs} it raises [Invalid_argument] before spawning
    anything. *)

val jobs : t -> int

val run :
  ?cancel_on_error:Ddb_budget.Budget.group -> t -> (int -> unit) -> unit
(** [run t f] applies [f w] once on each worker [w] and blocks until all of
    them have returned.  Exception-safe join: every worker runs [f] to
    completion (or to its own exception) before [run] returns, and the
    exception of the lowest-numbered worker that failed is then re-raised.
    One submitter at a time: [run] must not be called concurrently from
    several domains on the same pool.

    [cancel_on_error]: the first exception immediately cancels the given
    budget group (from the failing worker), so the other workers' budget
    tokens that joined the group degrade to [Cancelled] at their next probe
    instead of running to completion — the pool still waits for every
    worker before re-raising. *)

val shutdown : t -> unit
(** Stop the workers and join their domains.  Idempotent; the pool cannot
    be used afterwards. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], apply, [shutdown] — shutdown runs even on exceptions. *)
