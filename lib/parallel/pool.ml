(* A fixed pool of Domain.t workers that run one job at a time (stdlib
   only: Domain + Mutex + Condition).

   A job is a closure [int -> unit]; [run] applies it once on every worker,
   to that worker's index.  Worker indices are stable for the pool's
   lifetime, which is the property the batch layer builds on: anything
   indexed by worker (an oracle engine shard, a scratch buffer) is only
   ever touched from one domain, so no shared mutable state needs to be
   thread-safe.  Which work a worker does is up to the job — {!Parallel}
   strides item [k] onto worker [k mod jobs] — so placement never depends
   on scheduling, and the per-worker event stream a trace records under
   worker-index tids is reproducible.

   Synchronization is deliberately boring: one mutex guards the job slot,
   its generation and the count of workers still running it; [work] wakes
   idle workers when [run] bumps the generation, [finished] wakes the
   submitter blocked in [run] when the count reaches zero.

   Each worker stamps its index as the calling domain's trace tid and, while
   a trace is active, wraps its share of every job in a [pool.task] span, so
   Perfetto shows per-worker lanes with task lifetimes. *)

type t = {
  jobs : int;
  mutex : Mutex.t;
  work : Condition.t;
  finished : Condition.t;
  mutable job : int -> unit; (* the current run's job, applied per worker *)
  mutable generation : int; (* bumped by every run *)
  mutable running : int; (* workers still inside the current generation *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let recommended_jobs () = Domain.recommended_domain_count ()

(* The runtime's domain limit (Max_domains: 128 on 64-bit, 16 on 32-bit
   OCaml 5.1), less the domain that creates the pool. *)
let max_jobs = (if Sys.word_size = 64 then 128 else 16) - 1

let n_task = Ddb_obs.Trace.name "pool.task"

(* [run] guards the job so it cannot raise; a raise here would kill the
   worker domain. *)
let exec_task index job =
  if Ddb_obs.Trace.enabled () then begin
    Ddb_obs.Trace.begin_ n_task;
    job index;
    Ddb_obs.Trace.end_ n_task
  end
  else job index

let worker t index =
  Ddb_obs.Trace.set_tid index;
  let rec loop seen =
    Mutex.lock t.mutex;
    while t.generation = seen && not t.stop do
      Condition.wait t.work t.mutex
    done;
    if t.generation = seen then Mutex.unlock t.mutex (* stop *)
    else begin
      let generation = t.generation and job = t.job in
      Mutex.unlock t.mutex;
      exec_task index job;
      Mutex.lock t.mutex;
      t.running <- t.running - 1;
      if t.running = 0 then Condition.signal t.finished;
      Mutex.unlock t.mutex;
      loop generation
    end
  in
  loop 0

let create ?jobs () =
  let jobs = max 1 (Option.value jobs ~default:(recommended_jobs ())) in
  if jobs > max_jobs then
    invalid_arg
      (Printf.sprintf "Pool.create: %d workers, the runtime allows at most %d"
         jobs max_jobs);
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      job = ignore;
      generation = 0;
      running = 0;
      stop = false;
      domains = [];
    }
  in
  if jobs > 1 then
    t.domains <- List.init jobs (fun i -> Domain.spawn (fun () -> worker t i));
  t

let jobs t = t.jobs

(* A single-job pool runs the job inline on the caller as worker 0;
   otherwise every worker picks it up from the slot.  Each worker's
   exception is stored in its own slot — with [cancel_on_error] set, the
   failing worker also cancels the group *immediately*, so the other
   workers trip [Cancelled] at their next budget probe instead of running
   to completion — and after the join the lowest worker's is re-raised. *)
let run ?cancel_on_error t f =
  if t.stop then invalid_arg "Pool.run: pool is shut down";
  let errors = Array.make t.jobs None in
  let guarded w =
    try f w
    with e ->
      Option.iter Ddb_budget.Budget.cancel_group cancel_on_error;
      errors.(w) <- Some e
  in
  if t.domains = [] then exec_task 0 guarded
  else begin
    Mutex.lock t.mutex;
    t.job <- guarded;
    t.running <- t.jobs;
    t.generation <- t.generation + 1;
    Condition.broadcast t.work;
    while t.running > 0 do
      Condition.wait t.finished t.mutex
    done;
    t.job <- ignore (* drop the job's captures *);
    Mutex.unlock t.mutex
  end;
  Array.iter (Option.iter raise) errors

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  let ds = t.domains in
  t.domains <- [];
  List.iter Domain.join ds

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
