(* Order-stable mapping over a work pool.

   Item [k] of the input writes its result into slot [k] of an array; after
   the exception-safe join the slots are read back in index order.  Worker
   [w] walks the stride [w, w + jobs, ...], so item [k] runs on worker
   [k mod jobs] — a pure function of the input, so the per-worker streams a
   trace records and the per-worker engine caches are reproducible.
   Placement is invisible in the output, so [jobs:1] and [jobs:k] give the
   same list for any deterministic [f].

   Memory-model note: each slot is written by exactly one worker, and the
   submitter only reads the slots after Pool.run's join (a worker decrements
   the running count under the pool mutex after its writes; the submitter
   re-reads it under the same mutex) — the writes are properly published. *)

let map_in pool ?cancel_on_error f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let jobs = Pool.jobs pool in
  let slots = Array.make n None in
  (* A worker stops at its first failing item, so the lowest index recorded
     here is the lowest failing item. *)
  let failed = Array.make n None in
  (try
     Pool.run ?cancel_on_error pool (fun worker ->
         let k = ref worker in
         while !k < n do
           (try slots.(!k) <- Some (f ~worker items.(!k))
            with e -> failed.(!k) <- Some e; raise e);
           k := !k + jobs
         done)
   with e -> Array.iter (Option.iter raise) failed; raise e);
  List.init n (fun k -> Option.get slots.(k))

let map ?jobs f xs =
  Pool.with_pool ?jobs (fun pool -> map_in pool (fun ~worker:_ x -> f x) xs)
