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
   do not change.  A cell asks [Registry]'s one-shot queries on its
   worker's engine. *)

type t = { pool : Pool.t; engines : Engine.t array }

let create ?jobs ?(cache = true) ?(fastpath = true) () =
  let pool = Pool.create ?jobs () in
  let engines =
    Array.init (Pool.jobs pool) (fun _ -> Engine.create ~cache ~fastpath ())
  in
  { pool; engines }

let engines t = Array.to_list t.engines
let shutdown t = Pool.shutdown t.pool

let with_batch ?jobs ?cache ?fastpath ?pinned:_ f =
  let t = create ?jobs ?cache ?fastpath () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

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

(* Every cell of every sweep: [q eng name x] for each [(name, x)] of
   [items], on the engine of the worker the cell lands on, asked of
   semantics [name] under its own fresh budget token minted from [limits]
   inside the task — so per-cell wall deadlines start when the cell starts
   and logical caps are context-free per cell.  The token joins the
   [cancel_on_error] group, so one cell's exception degrades the remaining
   cells to [Cancelled] instead of hanging the sweep.  With the default
   [no_limits] nothing can trip but a cancellation or an injected fault.
   For cache-disabled batches under purely logical caps the set of
   [Unknown] cells is identical at every job count (the
   parallel-determinism law in test/test_budget.ml). *)
let cells t ?(limits = Budget.no_limits) ?retry ?cancel_on_error items q =
  Parallel.map_in t.pool ?cancel_on_error
    (fun ~worker (name, x) ->
      let eng = t.engines.(worker) in
      Engine.budgeted ?retry ?group:cancel_on_error eng limits ~sem:name
        (fun () -> q eng name x))
    items

(* Cells are name-major: semantics [i]'s answer to literal [j] is cell
   [i * |lits| + j]. *)
let literal_sweep t ?sems ?limits ?retry ?cancel_on_error db =
  let names = default_sems db sems in
  let lits = pm_literals db in
  let answers =
    Array.of_list
      (cells t ?limits ?retry ?cancel_on_error
         (List.concat_map (fun n -> List.map (fun l -> (n, l)) lits) names)
         (fun eng sem l -> Registry.infer_literal_in eng ~sem db l))
  in
  let m = List.length lits in
  List.mapi
    (fun i name ->
      (name, List.mapi (fun j l -> (l, answers.((i * m) + j))) lits))
    names

(* One cell per selected semantics. *)
let by_semantics t ?sems ?limits ?retry ?cancel_on_error db q =
  let names = default_sems db sems in
  List.combine names
    (cells t ?limits ?retry ?cancel_on_error
       (List.map (fun n -> (n, ())) names)
       (fun eng sem () -> q eng ~sem db))

let all_semantics t ?sems ?limits ?retry ?cancel_on_error db f =
  by_semantics t ?sems ?limits ?retry ?cancel_on_error db (fun eng ~sem db ->
      Registry.infer_formula_in eng ~sem db f)

let exists_sweep t ?sems ?limits ?retry ?cancel_on_error db =
  by_semantics t ?sems ?limits ?retry ?cancel_on_error db Registry.has_model_in

let totals t = Engine.merge_stats (engines t)
let per_scope t = Engine.merge_per_scope (engines t)
let stats_json t = Engine.merged_stats_json (engines t)
let reset t = Array.iter Engine.reset t.engines
