open Ddb_logic
open Ddb_db
open Ddb_core
module Engine = Ddb_engine.Engine
module Budget = Ddb_budget.Budget

(* Domain-parallel batch evaluation: one oracle engine per pool worker.

   The engine is memoizing and stateful, so sharing one across domains
   would race on every table; instead worker [i] owns engine [i] and the
   pool's stable worker indices guarantee single-domain access.  Shards
   warm their caches independently (a query answered from shard 0's memo
   table is recomputed by shard 3 the first time it lands there) — that is
   the price of lock-freedom, and exactly what [Engine.merge_stats]
   quantifies: merged cache hits drop as jobs grow, merged oracle answers
   do not change.

   The semantics records ([Registry.all_in engine]) are built once per
   shard at creation; sweeps only look them up by name. *)

type t = {
  pool : Pool.t;
  engines : Engine.t array;
  sems : (string * Semantics.t) list array; (* per worker, registry order *)
  pinned : bool;
}

let create ?jobs ?(cache = true) ?(fastpath = true) ?(pinned = false)
    ?(profile = false) () =
  let pool = Pool.create ?jobs () in
  let engines =
    Array.init (Pool.jobs pool) (fun _ ->
        Engine.create ~cache ~fastpath ~profile ())
  in
  let sems =
    Array.map
      (fun eng ->
        List.map
          (fun (s : Semantics.t) -> (s.Semantics.name, s))
          (Registry.all_in eng))
      engines
  in
  { pool; engines; sems; pinned }

let jobs t = Pool.jobs t.pool
let engines t = Array.to_list t.engines
let shutdown t = Pool.shutdown t.pool

let with_batch ?jobs ?cache ?fastpath ?pinned ?profile f =
  let t = create ?jobs ?cache ?fastpath ?pinned ?profile () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Every sweep routes through this: chunked (dynamic placement, fastest)
   normally, statically pinned when the batch was created for tracing or
   profiling — item→worker placement then is a pure function of the query
   list, so per-worker trace streams and per-shard metrics are
   reproducible. *)
let map t ?cancel_on_error ?chunk_size f xs =
  if t.pinned then Parallel.map_pinned_in t.pool ?cancel_on_error f xs
  else Parallel.map_chunked_in t.pool ?cancel_on_error ?chunk_size f xs

let sem_for t ~worker name =
  match List.assoc_opt name t.sems.(worker) with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Batch: unknown semantics %S" name)

let default_sems db = function
  | Some names -> names
  | None -> Registry.applicable_names db

(* All ± literals of the universe, ¬x before x, ascending atoms — the fixed
   query order every sweep (and the sequential baseline) uses, so results
   can be compared position-wise. *)
let pm_literals db =
  List.concat_map
    (fun x -> [ Lit.Neg x; Lit.Pos x ])
    (List.init (Db.num_vars db) Fun.id)

(* Cut a flat answer list back into consecutive groups of the given sizes,
   in one pass (sweeps flatten their items, the pool maps them in order). *)
let regroup sizes xs =
  let rec take k xs acc =
    if k = 0 then (List.rev acc, xs)
    else
      match xs with
      | x :: rest -> take (k - 1) rest (x :: acc)
      | [] -> invalid_arg "Batch.regroup: too few answers"
  in
  let rec go sizes xs =
    match sizes with
    | [] -> []
    | k :: rest ->
      let mine, others = take k xs [] in
      mine :: go rest others
  in
  go sizes xs

(* Items are name-major: one group of ± literal answers per semantics. *)
let per_semantics names lits answers =
  List.map2
    (fun name mine -> (name, List.combine lits mine))
    names
    (regroup (List.map (fun _ -> List.length lits) names) answers)

(* Every cell of every sweep: the boolean query [q] on the worker's record
   for [name], under its own fresh budget token minted from [limits] inside
   the task — so per-cell wall deadlines start when the cell starts and
   logical caps are context-free per cell.  The token joins the
   [cancel_on_error] group, so one task exception degrades the remaining
   cells to [Cancelled] instead of hanging the sweep.  With the default
   [no_limits] nothing can trip but a cancellation or an injected fault.
   For cache-disabled batches under purely logical caps the set of
   [Unknown] cells is identical at every job count (the
   parallel-determinism law in test/test_budget.ml). *)
let cell t ?retry ?group ~limits ~worker name q =
  let s = sem_for t ~worker name in
  Engine.budgeted ?retry ?group t.engines.(worker) limits ~sem:name (fun () ->
      q s)

let literal_sweep t ?sems ?(limits = Budget.no_limits) ?retry ?cancel_on_error
    db =
  let names = default_sems db sems in
  let lits = pm_literals db in
  let items = List.concat_map (fun n -> List.map (fun l -> (n, l)) lits) names in
  let answers =
    map t ?cancel_on_error
      (fun ~worker (name, l) ->
        cell t ?retry ?group:cancel_on_error ~limits ~worker name (fun s ->
            s.Semantics.infer_literal db l))
      items
  in
  per_semantics names lits answers

let all_semantics t ?sems ?(limits = Budget.no_limits) ?retry ?cancel_on_error
    db f =
  let names = default_sems db sems in
  map t ?cancel_on_error ~chunk_size:1
    (fun ~worker name ->
      ( name,
        cell t ?retry ?group:cancel_on_error ~limits ~worker name (fun s ->
            s.Semantics.infer_formula db f) ))
    names

let exists_sweep t ?sems ?(limits = Budget.no_limits) ?retry ?cancel_on_error
    db =
  let names = default_sems db sems in
  map t ?cancel_on_error ~chunk_size:1
    (fun ~worker name ->
      ( name,
        cell t ?retry ?group:cancel_on_error ~limits ~worker name (fun s ->
            s.Semantics.has_model db) ))
    names

let instance_sweep t ?sems dbs =
  let items =
    List.concat_map
      (fun db -> List.map (fun name -> (db, name)) (default_sems db sems))
      dbs
  in
  let swept =
    map t ~chunk_size:1
      (fun ~worker (db, name) ->
        ( name,
          List.map
            (fun l ->
              ( l,
                cell t ~limits:Budget.no_limits ~worker name (fun s ->
                    s.Semantics.infer_literal db l) ))
            (pm_literals db) ))
      items
  in
  (* regroup the flat (instance-major) result per instance *)
  regroup (List.map (fun db -> List.length (default_sems db sems)) dbs) swept

let totals t = Engine.merge_stats (engines t)
let metrics_json t = Engine.merged_metrics_json (engines t)
let per_scope t = Engine.merge_per_scope (engines t)
let stats_json t = Engine.merged_stats_json (engines t)
let reset t = Array.iter Engine.reset t.engines
