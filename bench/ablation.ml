open Ddb_logic
open Ddb_core
open Ddb_workload

(* Ablation benches for the design choices called out in DESIGN.md:

   ABL-engines — reference enumeration vs oracle-guided engines.  The
   reference engine walks all 2^n interpretations; the oracle engine's work
   is driven by SAT calls.  The crossover shows why the guess-and-check
   upper-bound algorithms matter in practice, not just asymptotically.

   ABL-oracle — covered by Oracle_bench (log vs linear Σ₂ usage). *)

let time_ms f =
  let t0 = Unix.gettimeofday () in
  let _ = f () in
  (Unix.gettimeofday () -. t0) *. 1000.

(* Each ladder rung is independent (fresh seeded instance, fresh solver),
   so the rungs fan out over the domain pool; rows are printed after the
   join, in ladder order, identically for every job count.  jobs:1 (the
   default) is the historical sequential path and the one to use when the
   timing shape is the result. *)
let ladder ~jobs sizes row print_row =
  List.iter print_row
    (Ddb_parallel.Parallel.map_chunked ~jobs ~chunk_size:1 row sizes)

let engines ~jobs () =
  Fmt.pr "@.=== Ablation: reference enumeration vs oracle engine (EGCWA formula inference) ===@.";
  Fmt.pr "  %-6s %-14s %-14s@." "n" "reference ms" "oracle ms";
  ladder ~jobs [ 8; 12; 16; 20; 30; 40 ]
    (fun n ->
      let db = Random_db.positive ~seed:(7 * n) ~num_vars:n in
      let f = Random_db.formula ~seed:n ~num_vars:n ~depth:2 in
      let reference_ms =
        if n > 18 then Float.nan
        else
          time_ms (fun () ->
              List.for_all
                (fun m -> Formula.eval m f)
                (Ddb_db.Models.brute_minimal_models db))
      in
      let oracle_ms =
        time_ms (fun () ->
            Registry.infer_formula_in
              (Ddb_engine.Engine.create ~cache:false ~fastpath:false ())
              ~sem:"egcwa" db f)
      in
      (n, reference_ms, oracle_ms))
    (fun (n, reference_ms, oracle_ms) ->
      Fmt.pr "  %-6d %-14.2f %-14.2f@." n reference_ms oracle_ms)

let run ?(jobs = 1) () =
  engines ~jobs ()
