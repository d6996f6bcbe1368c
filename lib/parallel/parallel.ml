(* Order-stable mapping over a work pool.

   Item [k] of the input writes its result into slot [k] of an array; after
   the exception-safe join the slots are read back in index order.  The
   tasks only differ in which indices they walk: a contiguous chunk each
   (dynamic placement, whichever worker is free picks the next chunk), or,
   pinned, one task per worker striding over [w, w + jobs, ...] so that
   item [k] runs on worker [k mod jobs] — a pure function of the input, so
   the per-worker streams a trace records are reproducible.  Placement is
   invisible in the output, so [jobs:1] and [jobs:k], pinned or not, give
   the same list for any deterministic [f].

   Memory-model note: each slot is written by exactly one worker, and the
   submitter only reads the slots after Pool.run's join (worker decrements
   the pending count under the pool mutex after the write; the submitter
   re-reads it under the same mutex) — the writes are properly published. *)

let default_chunk_size ~jobs n = max 1 (n / (max 1 jobs * 4))

let map_in pool ?(pinned = false) ?cancel_on_error ?chunk_size f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let jobs = Pool.jobs pool in
  let slots = Array.make n None in
  (* task [i] maps indices [first i], [first i + step], ... below [stop i] *)
  let tasks, first, step, stop =
    if pinned then (min jobs n, Fun.id, jobs, fun _ -> n)
    else
      let c =
        match chunk_size with
        | Some c -> max 1 c
        | None -> default_chunk_size ~jobs n
      in
      ((n + c - 1) / c, (fun i -> i * c), 1, fun i -> min n ((i + 1) * c))
  in
  (* A task stops at its first failing item, so the lowest index recorded
     here is the lowest failing item, pinned or not. *)
  let failed = Array.make n None in
  (try
     Pool.run ~pinned ?cancel_on_error pool
       (List.init tasks (fun i worker ->
            let k = ref (first i) in
            while !k < stop i do
              (try slots.(!k) <- Some (f ~worker items.(!k))
               with e -> failed.(!k) <- Some e; raise e);
              k := !k + step
            done))
   with e -> Array.iter (Option.iter raise) failed; raise e);
  List.init n (fun k -> Option.get slots.(k))

let map_chunked ?jobs ?chunk_size f xs =
  Pool.with_pool ?jobs (fun pool ->
      map_in pool ?chunk_size (fun ~worker:_ x -> f x) xs)
