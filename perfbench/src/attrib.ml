(* Self-time attribution over a drained trace.

   [Ddb_obs.Trace.dump] yields [(tid, name, phase, ts)] events, buffer by
   buffer in ascending tid order.  Every buffer is one domain's event
   stream and is balanced on its own (spans begin and end on the domain
   that opened them), so one begin/end stack per tid suffices even when two
   domains share a tid: their buffers are concatenated, never interleaved.

   A span's self time is its duration minus the durations of its direct
   children.  Along any stack, the self times of a root span and of every
   span nested in it add up to the root's duration exactly (the sums
   telescope on the integer timestamps), which is the accounting identity
   the benchmark checks around its [bench.op] root span. *)

type span = {
  mutable count : int;
  mutable total : int; (* Σ durations, trace-clock units *)
  mutable self : int; (* Σ self times *)
}

type t = {
  spans : (string, span) Hashtbl.t;
  by_tid : (int * string, int) Hashtbl.t; (* Σ durations per (tid, name) *)
  mutable root_total : int; (* Σ durations of root spans *)
  mutable root_count : int;
  mutable under_root_self : int; (* Σ self times of spans inside a root *)
  mutable outside_root_self : int; (* Σ self times of spans outside any *)
  mutable unbalanced : int; (* mismatched ends plus unclosed begins *)
}

type frame = { name : string; start : int; mutable child : int; rooted : bool }

let span_of t name =
  match Hashtbl.find_opt t.spans name with
  | Some s -> s
  | None ->
    let s = { count = 0; total = 0; self = 0 } in
    Hashtbl.add t.spans name s;
    s

let add tbl key v =
  Hashtbl.replace tbl key (v + Option.value (Hashtbl.find_opt tbl key) ~default:0)

let rooted_top = function f :: _ -> f.rooted | [] -> false

let of_events ~root events =
  let t =
    {
      spans = Hashtbl.create 32;
      by_tid = Hashtbl.create 8;
      root_total = 0;
      root_count = 0;
      under_root_self = 0;
      outside_root_self = 0;
      unbalanced = 0;
    }
  in
  let stacks : (int, frame list) Hashtbl.t = Hashtbl.create 4 in
  let stack tid = Option.value (Hashtbl.find_opt stacks tid) ~default:[] in
  List.iter
    (fun (tid, name, ph, ts) ->
      match ph with
      | 'B' ->
        let st = stack tid in
        let rooted = String.equal name root || rooted_top st in
        Hashtbl.replace stacks tid ({ name; start = ts; child = 0; rooted } :: st)
      | 'E' -> (
        match stack tid with
        | f :: rest when String.equal f.name name ->
          Hashtbl.replace stacks tid rest;
          let dur = ts - f.start in
          let self = dur - f.child in
          let s = span_of t name in
          s.count <- s.count + 1;
          s.total <- s.total + dur;
          s.self <- s.self + self;
          add t.by_tid (tid, name) dur;
          if f.rooted then t.under_root_self <- t.under_root_self + self
          else t.outside_root_self <- t.outside_root_self + self;
          (match rest with p :: _ -> p.child <- p.child + dur | [] -> ());
          if String.equal name root && not (rooted_top rest) then begin
            t.root_total <- t.root_total + dur;
            t.root_count <- t.root_count + 1
          end
        | _ -> t.unbalanced <- t.unbalanced + 1)
      | _ -> ())
    events;
  Hashtbl.iter (fun _ st -> t.unbalanced <- t.unbalanced + List.length st) stacks;
  t

let find t name =
  Option.value (Hashtbl.find_opt t.spans name) ~default:{ count = 0; total = 0; self = 0 }

let self_with_prefix t prefix =
  Hashtbl.fold
    (fun name s acc -> if String.starts_with ~prefix name then acc + s.self else acc)
    t.spans 0

let tid_total t ~tid name = Option.value (Hashtbl.find_opt t.by_tid (tid, name)) ~default:0

let tids_with t name =
  Hashtbl.fold (fun (tid, n) _ acc -> if String.equal n name then tid :: acc else acc) t.by_tid []

(* The identity: inside the root spans, self times account for every
   trace-clock unit of the roots' durations, and nothing was left open. *)
let accounts t = t.unbalanced = 0 && t.under_root_self = t.root_total
