(* A fixed pool of Domain.t workers over a shared task queue (stdlib only:
   Domain + Mutex + Condition).

   Tasks are closures [int -> unit] applied to the index of the worker that
   runs them.  Worker indices are stable for the pool's lifetime, which is
   the property the batch layer builds on: anything indexed by worker (an
   oracle engine shard, a scratch buffer) is only ever touched from one
   domain, so no shared mutable state needs to be thread-safe.

   Synchronization is deliberately boring: one mutex guards the queues and
   the unfinished-task count; [work] wakes idle workers, [finished] wakes
   the submitter blocked in [run].  Determinism of *results* is not the
   pool's job — callers tag tasks with positions and reassemble (see
   {!Parallel.map_in}); the pool only guarantees that every submitted
   task runs exactly once and that [run] returns after all of them.

   [run] has two placements, picked by its [pinned] flag:
     - by default tasks join one shared queue and go to whichever worker
       frees up first (fastest wall-clock, scheduling-dependent placement);
     - pinned, task [i] joins worker [i]'s own queue and runs there and
       nowhere else.  Placement — and therefore the per-worker event stream
       a trace records under worker-index tids — is independent of
       scheduling, which is what makes traced parallel runs byte-identical.

   Each worker stamps its index as the calling domain's trace tid and, while
   a trace is active, wraps every task in a [pool.task] span, so Perfetto
   shows per-worker lanes with task lifetimes. *)

type t = {
  jobs : int;
  mutex : Mutex.t;
  work : Condition.t;
  finished : Condition.t;
  tasks : (int -> unit) Queue.t;
  pinned : (int -> unit) Queue.t array; (* slot w: only worker w pops *)
  mutable unfinished : int;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let recommended_jobs () = Domain.recommended_domain_count ()

let n_task = Ddb_obs.Trace.name "pool.task"

(* [run] wraps tasks so they cannot raise; a raise here would kill the
   worker domain, so treat it as a programming error and swallow. *)
let exec_task index task =
  if Ddb_obs.Trace.enabled () then begin
    Ddb_obs.Trace.begin_ n_task;
    (try task index with _ -> ());
    Ddb_obs.Trace.end_ n_task
  end
  else try task index with _ -> ()

let worker t index =
  Ddb_obs.Trace.set_tid index;
  let mine = t.pinned.(index) in
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty mine && Queue.is_empty t.tasks && not t.stop do
      Condition.wait t.work t.mutex
    done;
    let task =
      if not (Queue.is_empty mine) then Some (Queue.pop mine)
      else if not (Queue.is_empty t.tasks) then Some (Queue.pop t.tasks)
      else None
    in
    match task with
    | None -> Mutex.unlock t.mutex (* stop *)
    | Some task ->
      Mutex.unlock t.mutex;
      exec_task index task;
      Mutex.lock t.mutex;
      t.unfinished <- t.unfinished - 1;
      if t.unfinished = 0 then Condition.broadcast t.finished;
      Mutex.unlock t.mutex;
      loop ()
  in
  loop ()

let create ?jobs () =
  let jobs = max 1 (Option.value jobs ~default:(recommended_jobs ())) in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      tasks = Queue.create ();
      pinned = Array.init jobs (fun _ -> Queue.create ());
      unfinished = 0;
      stop = false;
      domains = [];
    }
  in
  if jobs > 1 then
    t.domains <- List.init jobs (fun i -> Domain.spawn (fun () -> worker t i));
  t

let jobs t = t.jobs

(* One submit path for both disciplines: a single-job pool runs the tasks
   inline on the caller as worker 0, in submission order; otherwise they
   join the shared queue, or task [i] joins worker [i]'s own queue when
   pinned.  Either way a task's exception is stored in its own slot — with
   [cancel_on_error] set, the failing worker also cancels the group
   *immediately*, so the remaining tasks trip [Cancelled] at their next
   budget probe instead of running to completion — and after the join the
   first one in submission order is re-raised. *)
let run ?(pinned = false) ?cancel_on_error t fs =
  let n = List.length fs in
  if pinned && n > t.jobs then
    invalid_arg "Pool.run: more pinned tasks than workers";
  if n > 0 then begin
    if t.stop then invalid_arg "Pool.run: pool is shut down";
    let errors = Array.make n None in
    let guarded i f w =
      try f w
      with e ->
        Option.iter Ddb_budget.Budget.cancel_group cancel_on_error;
        errors.(i) <- Some e
    in
    if t.domains = [] then List.iteri (fun i f -> exec_task 0 (guarded i f)) fs
    else begin
      Mutex.lock t.mutex;
      t.unfinished <- t.unfinished + n;
      List.iteri
        (fun i f ->
          Queue.add (guarded i f) (if pinned then t.pinned.(i) else t.tasks))
        fs;
      Condition.broadcast t.work;
      while t.unfinished > 0 do
        Condition.wait t.finished t.mutex
      done;
      Mutex.unlock t.mutex
    end;
    Array.iter (Option.iter raise) errors
  end

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
