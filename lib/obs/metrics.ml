(* Log₂-bucketed latency histograms, and the per-op table [ddbtool profile]
   prints, folded from the spans of a trace.

   Histogram buckets: bucket 0 holds values < 1, bucket i (1 ≤ i ≤ 63)
   holds values in [2^(i-1), 2^i).  Percentiles are read off the
   cumulative bucket counts and clamped to the observed [min, max], so
   p50/p90/p99 are within a factor of 2 of the true order statistic —
   plenty for an oracle-kind latency table. *)

type histogram = {
  buckets : int array; (* length [num_buckets] *)
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let num_buckets = 64

let histogram () =
  {
    buckets = Array.make num_buckets 0;
    count = 0;
    sum = 0.;
    min_v = infinity;
    max_v = neg_infinity;
  }

(* Index of the log₂ bucket for a non-negative value. *)
let bucket_of v =
  if not (v >= 1.) then 0
  else begin
    let n = int_of_float v in
    let i = ref 0 in
    let n = ref n in
    while !n > 0 do
      incr i;
      n := !n lsr 1
    done;
    min !i (num_buckets - 1)
  end

let observe h v =
  let v = if v < 0. then 0. else v in
  h.buckets.(bucket_of v) <- h.buckets.(bucket_of v) + 1;
  h.count <- h.count + 1;
  h.sum <- h.sum +. v;
  if v < h.min_v then h.min_v <- v;
  if v > h.max_v then h.max_v <- v

(* Upper edge of bucket i = 2^i (bucket 0 → 1). *)
let bucket_upper i = if i = 0 then 1. else ldexp 1. i

let percentile h p =
  if h.count = 0 then 0.
  else begin
    let rank = int_of_float (ceil (p *. float_of_int h.count)) in
    let rank = max 1 (min h.count rank) in
    let seen = ref 0 in
    let est = ref h.max_v in
    (try
       for i = 0 to num_buckets - 1 do
         seen := !seen + h.buckets.(i);
         if !seen >= rank then begin
           est := bucket_upper i;
           raise Exit
         end
       done
     with Exit -> ());
    (* clamp the bucket edge to the observed range *)
    max h.min_v (min h.max_v !est)
  end

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let summarize (h : histogram) =
  if h.count = 0 then
    { count = 0; sum = 0.; min = 0.; max = 0.; p50 = 0.; p90 = 0.; p99 = 0. }
  else
    {
      count = h.count;
      sum = h.sum;
      min = h.min_v;
      max = h.max_v;
      p50 = percentile h 0.50;
      p90 = percentile h 0.90;
      p99 = percentile h 0.99;
    }

(* ------------------------------------------------------------------ *)
(* Per-op rows from trace spans                                        *)

type row = { op : string; latency : summary; hits : int; misses : int }

let is_op name =
  String.starts_with ~prefix:"engine." name
  || String.starts_with ~prefix:"fastpath." name

let op_rows spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s : Trace.span) ->
      if is_op s.name && not (List.mem_assoc "unwound" s.args) then begin
        let h, hits, misses =
          match Hashtbl.find_opt tbl s.name with
          | Some acc -> acc
          | None ->
            let acc = (histogram (), ref 0, ref 0) in
            Hashtbl.add tbl s.name acc;
            acc
        in
        observe h (float_of_int s.dur);
        match List.assoc_opt "cache_hit" s.args with
        | Some (Trace.Bool true) -> incr hits
        | Some (Trace.Bool false) -> incr misses
        | _ -> ()
      end)
    spans;
  Hashtbl.fold
    (fun op (h, hits, misses) acc ->
      { op; latency = summarize h; hits = !hits; misses = !misses } :: acc)
    tbl []
  |> List.sort (fun a b -> String.compare a.op b.op)
