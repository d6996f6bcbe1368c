open Ddb_logic
open Ddb_db
open Ddb_core
open Ddb_parallel
module Engine = Ddb_engine.Engine
module Frag = Ddb_frag.Frag

(* Tests for the fragment classifier and the fast-path dispatch layer:
   classifier decisions against the definitional predicates, the dedicated
   polynomial algorithms against the generic reference procedures, the
   one-classification-per-theory caching contract, and the differential law
   (fast-path answers ≡ generic-oracle answers for every semantics, at
   jobs:1 and jobs:4). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let count n = Gen.qcheck_count n
let seeds = QCheck.int_bound 999999
let rand_of seed = Random.State.make [| seed |]

(* --- unit: classifier flags on hand-built databases --- *)

let classify_hand_built () =
  let fr = Frag.classify (Db.of_string "a. b :- a. :- a, b.") in
  check "definite positive" true (fr.Frag.positive && fr.Frag.definite);
  check "has integrity" false fr.Frag.no_integrity;
  check "normal" true fr.Frag.normal;
  let fr = Frag.classify (Db.of_string "a | b.") in
  check "disjunctive not definite" false fr.Frag.definite;
  check "disjunctive not normal" false fr.Frag.normal;
  check "disjunction positive" true fr.Frag.positive;
  let fr = Frag.classify (Db.of_string "a :- not b. b :- not a.") in
  check "odd loop unstratified" false fr.Frag.stratified;
  check "negation not positive" false fr.Frag.positive;
  let fr = Frag.classify (Db.of_string "b. a :- not b.") in
  check "layered is stratified" true fr.Frag.stratified

(* --- qcheck: classifier vs the definitional predicates --- *)

let qcheck_classifier_definitional =
  QCheck.Test.make ~count:(count 120)
    ~name:"classifier flags match the definitional predicates" seeds
    (fun seed ->
      let rand = rand_of seed in
      let num_vars = 1 + Random.State.int rand 6 in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(2 * num_vars) in
      let fr = Frag.classify db in
      let definite_def =
        (not (Db.has_negation db))
        && List.for_all
             (fun c ->
               Clause.is_integrity c || List.length (Clause.head c) = 1)
             (Db.clauses db)
      in
      fr.Frag.positive = not (Db.has_negation db)
      && fr.Frag.normal = Db.is_normal_program db
      && fr.Frag.stratified = Stratify.is_stratified db
      && fr.Frag.no_integrity = not (Db.has_integrity db)
      && fr.Frag.definite = definite_def)

(* Biased generators land in their intended fragment. *)
let qcheck_biased_generators =
  QCheck.Test.make ~count:(count 60)
    ~name:"fragment-biased generators hit their fragment" seeds (fun seed ->
      let rand = rand_of seed in
      let num_vars = 1 + Random.State.int rand 6 in
      let definite = Gen.definite_db rand ~num_vars ~num_clauses:(2 * num_vars) in
      let positive = Gen.positive_db rand ~num_vars ~num_clauses:(2 * num_vars) in
      let strat = Gen.stratified_db rand ~num_vars ~num_clauses:(2 * num_vars) ~layers:3 in
      (Frag.classify definite).Frag.definite
      && (Frag.classify positive).Frag.positive
      && (Frag.classify strat).Frag.stratified)

(* --- qcheck: the polynomial algorithms vs the reference procedures --- *)

let qcheck_closure_least_model =
  QCheck.Test.make ~count:(count 80)
    ~name:"Frag.info closure: the unique minimal model (definite DBs)"
    seeds (fun seed ->
      let rand = rand_of seed in
      let num_vars = 1 + Random.State.int rand 6 in
      let db = Gen.definite_db rand ~num_vars ~num_clauses:(2 * num_vars) in
      let info = Frag.info db in
      let minimal = Models.minimal_models db in
      if Lazy.force info.Frag.consistent then
        match minimal with
        | [ m ] -> Interp.equal m (Lazy.force info.Frag.closure)
        | _ -> false
      else minimal = [])

let qcheck_closure_fixpoint =
  QCheck.Test.make ~count:(count 80)
    ~name:"Frag.info closure vs Tp.occurring_in_fixpoint (positive DBs)" seeds
    (fun seed ->
      let rand = rand_of seed in
      let num_vars = 1 + Random.State.int rand 6 in
      let db = Gen.positive_db rand ~num_vars ~num_clauses:(2 * num_vars) in
      Interp.equal
        (Lazy.force (Frag.info db).Frag.closure)
        (Tp.occurring_in_fixpoint db))

let qcheck_iterated_model =
  QCheck.Test.make ~count:(count 60)
    ~name:"Frag.iterated_model is the unique perfect model (stratified normal)"
    seeds (fun seed ->
      let rand = rand_of seed in
      let num_vars = 1 + Random.State.int rand 5 in
      (* stratified_db generates disjunctive heads too; reduce to normal by
         keeping the first head atom — stratification is preserved (the
         kept head atom has the same level). *)
      let strat =
        Gen.stratified_db rand ~num_vars ~num_clauses:(2 * num_vars) ~layers:3
      in
      let normal =
        Db.make
          ~vocab:(Db.vocab strat)
          (List.map
             (fun c ->
               Clause.make
                 ~head:[ List.hd (Clause.head c) ]
                 ~pos:(Clause.body_pos c) ~neg:(Clause.body_neg c))
             (Db.clauses strat))
      in
      match Priority.perfect_models normal with
      | [ m ] -> Interp.equal m (Frag.iterated_model normal)
      | _ -> false)

(* --- caching: one classification per hash-consed theory --- *)

let classification_cached_once () =
  let db = Db.of_string "a. b :- a. c | d :- b." in
  let eng = Engine.create () in
  let sems = Registry.all_in eng in
  List.iter
    (fun (s : Semantics.t) ->
      if s.Semantics.applicable db then begin
        ignore (s.Semantics.has_model db);
        ignore (s.Semantics.infer_literal db (Lit.Neg 0))
      end)
    sems;
  let st = Engine.totals eng in
  check_int "one classification for one theory" 1
    st.Engine.classifications;
  check "dispatch consulted more than once" true
    (st.Engine.fastpath_hits + st.Engine.fastpath_misses > 1);
  (* a second, structurally different database costs one more *)
  ignore ((List.hd sems).Semantics.has_model (Db.of_string "x | y."));
  check_int "second theory, second classification" 2
    (Engine.totals eng).Engine.classifications

let classification_uncached_on_direct () =
  let db = Db.of_string "a. b :- a." in
  let eng = Engine.create ~cache:false () in
  let s = List.hd (Registry.all_in eng) in
  ignore (s.Semantics.has_model db);
  ignore (s.Semantics.has_model db);
  check "direct engines reclassify per query" true
    ((Engine.totals eng).Engine.classifications >= 2)

(* --- the differential law: fast paths ≡ generic oracle --- *)

(* Four workload families spanning the routed cells: definite-Horn (with
   integrity), plain positive, stratified normal, and general DNDBs (all
   misses — exercises the fall-through). *)
let family_of seed rand ~num_vars =
  match seed mod 4 with
  | 0 -> Gen.definite_db rand ~num_vars ~num_clauses:(2 * num_vars)
  | 1 -> Gen.positive_db rand ~num_vars ~num_clauses:(2 * num_vars)
  | 2 -> Gen.stratified_db rand ~num_vars ~num_clauses:(2 * num_vars) ~layers:3
  | _ -> Gen.dndb rand ~num_vars ~num_clauses:(2 * num_vars)

let qcheck_fastpath_differential =
  QCheck.Test.make ~count:(count 40)
    ~name:"fast-path ≡ generic oracle (all semantics, jobs:1 and jobs:4)"
    seeds (fun seed ->
      let rand = rand_of seed in
      let num_vars = 1 + Random.State.int rand 5 in
      let db = family_of seed rand ~num_vars in
      let f = Gen.random_formula rand num_vars ~depth:3 in
      let run ~jobs ~fastpath =
        Batch.with_batch ~jobs ~fastpath (fun b ->
            ( Batch.literal_sweep b db,
              Batch.exists_sweep b db,
              Batch.all_semantics b db f ))
      in
      let reference = run ~jobs:1 ~fastpath:false in
      List.for_all
        (fun jobs -> run ~jobs ~fastpath:true = reference)
        [ 1; 4 ])

(* The fast paths must actually fire on tractable workloads — guards the
   differential law against vacuity (a dispatcher that never routes would
   pass it trivially). *)
let fastpath_hits_on_tractable () =
  let rand = rand_of 7 in
  let db = Gen.definite_db rand ~num_vars:6 ~num_clauses:12 in
  let eng = Engine.create () in
  List.iter
    (fun (s : Semantics.t) ->
      if s.Semantics.applicable db then ignore (s.Semantics.has_model db))
    (Registry.all_in eng);
  check "hits > 0" true ((Engine.totals eng).Engine.fastpath_hits > 0);
  (* and must not fire when disabled *)
  let eng' = Engine.create ~fastpath:false () in
  List.iter
    (fun (s : Semantics.t) ->
      if s.Semantics.applicable db then ignore (s.Semantics.has_model db))
    (Registry.all_in eng');
  check_int "disabled: no hits" 0 (Engine.totals eng').Engine.fastpath_hits;
  check_int "disabled: no misses recorded" 0
    (Engine.totals eng').Engine.fastpath_misses

(* Budget probes still fire on fast paths: a zero-tick budget degrades a
   fast-path query instead of letting it bypass resource control. *)
let fastpath_respects_budget () =
  let module Budget = Ddb_budget.Budget in
  let db = Db.of_string "a. b :- a." in
  let eng = Engine.create () in
  let answer =
    Engine.budgeted eng (Budget.limits ~ticks:0 ()) ~sem:"gcwa" (fun () ->
        Registry.has_model_in eng ~sem:"gcwa" db)
  in
  check "degraded" true
    (match answer with Budget.Unknown _ -> true | _ -> false)

let suites =
  [
    ( "frag.classifier",
      [
        Alcotest.test_case "hand-built flags" `Quick classify_hand_built;
        QCheck_alcotest.to_alcotest qcheck_classifier_definitional;
        QCheck_alcotest.to_alcotest qcheck_biased_generators;
      ] );
    ( "frag.algorithms",
      [
        QCheck_alcotest.to_alcotest qcheck_closure_least_model;
        QCheck_alcotest.to_alcotest qcheck_closure_fixpoint;
        QCheck_alcotest.to_alcotest qcheck_iterated_model;
      ] );
    ( "frag.dispatch",
      [
        Alcotest.test_case "classification cached once" `Quick
          classification_cached_once;
        Alcotest.test_case "direct engines reclassify" `Quick
          classification_uncached_on_direct;
        Alcotest.test_case "hits on tractable, silent when disabled" `Quick
          fastpath_hits_on_tractable;
        Alcotest.test_case "budget probes fire on fast paths" `Quick
          fastpath_respects_budget;
        QCheck_alcotest.to_alcotest qcheck_fastpath_differential;
      ] );
  ]
