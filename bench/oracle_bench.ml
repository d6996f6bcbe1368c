open Ddb_logic
open Ddb_db
open Ddb_core
open Ddb_workload

(* The P^Σ₂ᵖ[O(log n)] demonstration: for GCWA/CCWA formula inference, the
   binary-search algorithm's Σ₂-oracle query count must track ⌈log₂(n+1)⌉+1
   while the per-atom algorithm tracks n.  This is the sharpest measurable
   signature in the paper's tables (the Θ-like upper bound). *)

let sizes = [ 8; 16; 32; 64 ]

(* The per-atom algorithm gets expensive quickly; cap it so the study stays
   snappy — the query *counts* are the result, and those are exact. *)
let linear_cap = 32

let run () =
  Fmt.pr "@.=== GCWA formula inference: Sigma2-oracle calls, log vs linear algorithm ===@.";
  Fmt.pr "  %-6s %-10s %-12s %-12s %-10s@." "n" "log-calls" "log-bound"
    "linear-calls" "agree";
  List.iter
    (fun n ->
      let db = Random_db.positive ~seed:(42 + n) ~num_vars:n in
      let part = Partition.minimize_all (Db.num_vars db) in
      let f = Random_db.formula ~seed:n ~num_vars:n ~depth:2 in
      let log_report =
        Oracle_algorithms.entails_log_in (Harness.base ()) db part f
      in
      if n <= linear_cap then begin
        let lin_report =
          Oracle_algorithms.entails_linear (Harness.base ()) db part f
        in
        Fmt.pr "  %-6d %-10d %-12d %-12d %-10b@." n
          log_report.Oracle_algorithms.sigma2_queries
          (Oracle_algorithms.log_bound n)
          lin_report.Oracle_algorithms.sigma2_queries
          (log_report.Oracle_algorithms.answer
          = lin_report.Oracle_algorithms.answer)
      end
      else
        Fmt.pr "  %-6d %-10d %-12d %-12s %-10s@." n
          log_report.Oracle_algorithms.sigma2_queries
          (Oracle_algorithms.log_bound n) "(skipped)" "-")
    sizes
