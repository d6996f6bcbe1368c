open Ddb_logic
open Ddb_db

(** The paper's oracle-bounded algorithms, with explicit query counting.

    - GCWA/CCWA formula inference in P^Σ₂ᵖ[O(log n)] (binary search for the
      support-set size, then one combined query), against the per-atom
      P^Σ₂ᵖ[O(n)] baseline;
    - CWA consistency in P^NP[O(log n)] (the paper's Section 3 remark),
      against the per-atom baseline. *)

type report = { answer : bool; sigma2_queries : int; p_size : int }

val entails_log_in :
  Ddb_engine.Engine.t -> Db.t -> Partition.t -> Formula.t -> report
(** CCWA_{⟨P;Q;Z⟩}(DB) ⊨ F with ≤ ⌈log₂(|P|+1)⌉ + 1 Σ₂ᵖ-oracle queries,
    the oracle realized by the engine: the query count does not depend on
    the engine's configuration, but a cached engine shares the oracle's
    internal support-set work across calls on the same database. *)

val entails_linear :
  Ddb_engine.Engine.t -> Db.t -> Partition.t -> Formula.t -> report
(** Same answer with |P| + 1 queries (ablation baseline). *)

val gcwa_formula_in : Ddb_engine.Engine.t -> Db.t -> Formula.t -> report
(** [entails_log_in] at the total partition. *)

val ccwa_formula_in :
  Ddb_engine.Engine.t -> Db.t -> Partition.t -> Formula.t -> report

val log_bound : int -> int
(** Upper bound on the log algorithms' query count for a universe of the
    given size. *)

type np_report = { consistent : bool; np_queries : int; universe : int }

val cwa_consistency_log : Ddb_engine.Engine.t -> Db.t -> np_report
(** CWA(DB) ≠ ∅ with ≤ ⌈log₂(n+1)⌉ + 1 NP-oracle queries, the oracle
    realized by the engine's ops for the [cwa] record: the query count
    does not depend on the engine's configuration. *)

val cwa_consistency_linear : Ddb_engine.Engine.t -> Db.t -> np_report
(** Same with exactly n + 1 queries. *)
