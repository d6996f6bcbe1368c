(* Latency summaries, and the per-op table [ddbtool profile] prints,
   folded from the spans of a trace.  A trace keeps every span, so the
   percentiles are exact order statistics of the sorted durations
   (nearest rank: p50 is the ⌈count/2⌉-th smallest). *)

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let summarize samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then
    { count = 0; sum = 0.; min = 0.; max = 0.; p50 = 0.; p90 = 0.; p99 = 0. }
  else
    (* the ⌈pct·n/100⌉-th smallest, in integers so no rank rounds up *)
    let rank pct = a.(max 1 (((pct * n) + 99) / 100) - 1) in
    {
      count = n;
      sum = Array.fold_left ( +. ) 0. a;
      min = a.(0);
      max = a.(n - 1);
      p50 = rank 50;
      p90 = rank 90;
      p99 = rank 99;
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
        let durs, hits, misses =
          match Hashtbl.find_opt tbl s.name with
          | Some acc -> acc
          | None ->
            let acc = (ref [], ref 0, ref 0) in
            Hashtbl.add tbl s.name acc;
            acc
        in
        durs := float_of_int s.dur :: !durs;
        match List.assoc_opt "cache_hit" s.args with
        | Some (Trace.Bool true) -> incr hits
        | Some (Trace.Bool false) -> incr misses
        | _ -> ()
      end)
    spans;
  Hashtbl.fold
    (fun op (durs, hits, misses) acc ->
      { op; latency = summarize !durs; hits = !hits; misses = !misses } :: acc)
    tbl []
  |> List.sort (fun a b -> String.compare a.op b.op)
