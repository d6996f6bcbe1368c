open Ddb_logic
open Ddb_sat
open Ddb_db
module Engine = Ddb_engine.Engine

(* The paper's P^Σ₂ᵖ[O(log n)] upper-bound algorithms for formula inference
   under GCWA and CCWA (Eiter & Gottlob's binary-search method from [7]).

   The object of interest is the support set
       S = { x ∈ P : x true in some (P;Z)-minimal model },
   because  CCWA(DB) ⊨ F  iff  DB ∪ { ¬x : x ∈ P∖S } ⊨ F.

   Computing S outright takes |P| Σ₂ᵖ-oracle queries (one per atom).  The
   binary-search algorithm needs only O(log |P|):
     1. with queries  Q(k) = "do k distinct P-atoms have minimal-model
        witnesses?"  binary-search K = |S|  (⌈log₂(|P|+1)⌉ queries);
     2. one final query: "are there K witnessed atoms W together with a
        model of DB ∪ {¬x : x ∈ P∖W} violating F?" — any witnessed W of
        size K must equal S, so this decides the complement of entailment.

   The oracle is realized by the memoizing oracle engine; being an
   *oracle*, its internal work is unbounded and only invocations are
   counted (Stats.bump_sigma2), which is what the complexity harness
   measures.  [entails_linear] is the |P|-query variant for the ablation
   bench. *)

type report = { answer : bool; sigma2_queries : int; p_size : int }

(* The binary search both log algorithms open with: the largest k ∈ [0, hi]
   with [at_least k] (monotone, and true at 0), in ⌈log₂(hi+1)⌉ queries. *)
let theta_search at_least hi =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if at_least mid then go mid hi else go lo (mid - 1)
  in
  go 0 hi

(* One Σ₂ᵖ oracle holding the (lazily computed) support set.  Every
   [query_at_least]/[query_final] invocation counts as one oracle call; the
   oracle's internal work — the support set and the final entailment — is
   done by the engine.  A cached engine shares that work across calls on the
   same database; the Σ₂ᵖ *query count* is the same either way, which is
   exactly what the complexity model allows. *)
let entails_log_in eng db part f =
  if Formula.max_atom f >= Partition.universe_size part then
    invalid_arg "Oracle_algorithms.entails_log_in: query atom outside partition";
  let before = (Stats.snapshot ()).Stats.sigma2 in
  let support = lazy (Engine.support_set eng db part) in
  let query_at_least k =
    Stats.bump_sigma2 ();
    Interp.cardinal (Lazy.force support) >= k
  in
  let query_final f =
    Stats.bump_sigma2 ();
    (* "exists a K-sized witnessed W and a counter-model": W = S, so decide
       SAT(DB ∪ ¬(P∖S) ∪ ¬F). *)
    not
      (Engine.augmented_entails eng db
         (Interp.diff (Partition.p part) (Lazy.force support))
         f)
  in
  let p_size = Interp.cardinal (Partition.p part) in
  let _k = theta_search query_at_least p_size in
  let counterexample = query_final f in
  {
    answer = not counterexample;
    sigma2_queries = (Stats.snapshot ()).Stats.sigma2 - before;
    p_size;
  }

(* The naive P^Σ₂ᵖ[O(n)] algorithm: one query per atom ("is x true in some
   minimal model?"), then the same final query. *)
let entails_linear eng db part f =
  if Formula.max_atom f >= Partition.universe_size part then
    invalid_arg "Oracle_algorithms.entails_linear: query atom outside partition";
  let before = (Stats.snapshot ()).Stats.sigma2 in
  let supported x =
    Stats.bump_sigma2 ();
    Engine.in_some_minimal eng db part x
  in
  let support =
    Interp.fold
      (fun x acc -> if supported x then Interp.add acc x else acc)
      (Partition.p part)
      (Interp.empty (Db.num_vars db))
  in
  let negs = Interp.diff (Partition.p part) support in
  Stats.bump_sigma2 ();
  let answer = Engine.augmented_entails eng db negs f in
  {
    answer;
    sigma2_queries = (Stats.snapshot ()).Stats.sigma2 - before;
    p_size = Interp.cardinal (Partition.p part);
  }

let gcwa_formula_in = Semantics.at_total Fun.id entails_log_in

let ccwa_formula_in eng db part f = entails_log_in eng db part f

(* Upper bound on the oracle calls the log algorithm may make: the binary
   search over [0, p] plus the final query. *)
let log_bound p_size =
  let rec bits k acc = if k <= 0 then acc else bits (k / 2) (acc + 1) in
  bits p_size 0 + 1

(* --- the CWA consistency remark ---

   The paper notes that deciding consistency of Reiter's CWA is coNP-hard
   and in P^NP[O(log n)] (but likely not in coD^P).  The log algorithm:

     CWA(DB) is consistent iff some model M of DB contains only entailed
     atoms (M ⊆ E, E = {x : DB ⊨ x}), equivalently M ∩ N = ∅ for
     N = {x : x has a countermodel}.

     1. binary-search K = |N| with NP queries "are there ≥ k atoms with
        countermodels?" (a guess of k atoms plus k countermodels);
     2. one final NP query "are there K witnessed atoms W and a model of
        DB avoiding all of W?" — any witnessed W of size K equals N.

   ⌈log₂(n+1)⌉ + 1 NP-oracle calls, against n + 1 for the per-atom
   algorithm.  As with the Σ₂ case the oracle's internal work is done by
   the engine ([Engine.non_entailed_atoms], then
   [Engine.augmented_has_model], the ops the [cwa] record asks) and only
   *queries* are counted. *)

type np_report = { consistent : bool; np_queries : int; universe : int }

let cwa_consistency_log eng db =
  let n = Db.num_vars db in
  let queries = ref 0 in
  let non_entailed = Engine.non_entailed_atoms eng db in
  let query_at_least k =
    incr queries;
    Interp.cardinal non_entailed >= k
  in
  let _k = theta_search query_at_least n in
  (* the final query: any witnessed W of size K is N, so decide
     SAT(DB ∪ ¬N) *)
  incr queries;
  let consistent = Engine.augmented_has_model eng db non_entailed in
  { consistent; np_queries = !queries; universe = n }

(* Per-atom baseline: n entailment queries ("DB ⊭ x?"), then the final
   satisfiability check. *)
let cwa_consistency_linear eng db =
  let n = Db.num_vars db in
  let queries = ref 0 in
  let non_entailed = Engine.non_entailed_atoms eng db in
  let negs =
    Interp.of_pred n (fun x ->
        incr queries;
        Interp.mem non_entailed x)
  in
  incr queries;
  let consistent = Engine.augmented_has_model eng db negs in
  { consistent; np_queries = !queries; universe = n }
