(* Order-stable chunked mapping over a work pool.

   The input list is cut into contiguous chunks; chunk [i] is one pool task
   that writes [List.map f chunk] into slot [i] of a result array; after the
   exception-safe join the slots are concatenated in index order.  The
   dynamic part (which worker picks which chunk) is invisible in the output,
   so [jobs:1] and [jobs:k] produce the same list for any deterministic [f].

   Memory-model note: each slot is written by exactly one worker, and the
   submitter only reads the slots after Pool.run's join (worker decrements
   the pending count under the pool mutex after the write; the submitter
   re-reads it under the same mutex) — the writes are properly published. *)

let chunk_list ~chunk_size xs =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k + 1 >= chunk_size then go (List.rev (x :: cur) :: acc) [] 0 rest
      else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

let default_chunk_size ~jobs n = max 1 (n / (max 1 jobs * 4))

let map_chunked_in pool ?cancel_on_error ?chunk_size f xs =
  let n = List.length xs in
  if n = 0 then []
  else begin
    let chunk_size =
      match chunk_size with
      | Some c -> max 1 c
      | None -> default_chunk_size ~jobs:(Pool.jobs pool) n
    in
    let chunks = Array.of_list (chunk_list ~chunk_size xs) in
    let slots = Array.make (Array.length chunks) [] in
    Pool.run ?cancel_on_error pool
      (List.init (Array.length chunks) (fun i worker ->
           slots.(i) <- List.map (fun x -> f ~worker x) chunks.(i)));
    List.concat (Array.to_list slots)
  end

(* Statically pinned variant: item [k] runs on worker [k mod jobs], one
   pool task per worker walking its stride.  No load balancing — the point
   is that item→worker placement is a pure function of the input, so the
   per-worker streams a trace records are reproducible.  Results are
   reassembled by item index, same output as [map_chunked_in]. *)
let map_pinned_in pool ?cancel_on_error f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  if n = 0 then []
  else begin
    let jobs = Pool.jobs pool in
    let out = Array.make n None in
    Pool.run_pinned ?cancel_on_error pool
      (Array.init jobs (fun w ->
           if w >= n then []
           else
             [
               (fun worker ->
                 let k = ref w in
                 while !k < n do
                   out.(!k) <- Some (f ~worker items.(!k));
                   k := !k + jobs
                 done);
             ]));
    List.init n (fun i ->
        match out.(i) with
        | Some y -> y
        | None -> invalid_arg "Parallel.map_pinned_in: missing slot")
  end

let map_chunked ?jobs ?chunk_size f xs =
  Pool.with_pool ?jobs (fun pool ->
      map_chunked_in pool ?chunk_size (fun ~worker:_ x -> f x) xs)
