open Ddb_logic
open Ddb_db
open Ddb_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- WFS --- *)

let wfs_suite =
  [
    Alcotest.test_case "stratified defaults" `Quick (fun () ->
        (* r. q :- not r. p :- not q.  =>  r true, q false, p true *)
        let db = Db.of_string "r. q :- not r. p :- not q." in
        let w = Wfs.compute db in
        let vocab = Db.vocab db in
        let v name = Vocab.intern vocab name in
        check "total" true (Three_valued.is_total w);
        check "r" true (Three_valued.value w (v "r") = Three_valued.T);
        check "q" true (Three_valued.value w (v "q") = Three_valued.F);
        check "p" true (Three_valued.value w (v "p") = Three_valued.T));
    Alcotest.test_case "odd loop undefined" `Quick (fun () ->
        let db = Db.of_string "a :- not a." in
        let w = Wfs.compute db in
        check "a undefined" true (Three_valued.value w 0 = Three_valued.U);
        check "not total" false (Wfs.is_total db));
    Alcotest.test_case "even loop undefined" `Quick (fun () ->
        let db = Db.of_string "a :- not b. b :- not a." in
        let w = Wfs.compute db in
        check "a undef" true (Three_valued.value w 0 = Three_valued.U);
        check "b undef" true (Three_valued.value w 1 = Three_valued.U));
    Alcotest.test_case "positive loop is false" `Quick (fun () ->
        let db = Db.of_string "a :- b. b :- a." in
        let w = Wfs.compute db in
        check "a false" true (Three_valued.value w 0 = Three_valued.F));
    Alcotest.test_case "inference" `Quick (fun () ->
        let db = Db.of_string "r. q :- not r. p :- not q." in
        let vocab = Db.vocab db in
        check "p" true (Wfs.infer_formula db (Parse.formula vocab "p & ~q"));
        check "undef not inferred" false
          (Wfs.infer_formula db (Parse.formula vocab "p | zzz") = false));
    Alcotest.test_case "rejects disjunction and integrity" `Quick (fun () ->
        let fails db =
          try
            ignore (Wfs.compute db);
            false
          with Invalid_argument _ -> true
        in
        check "disjunctive" true (fails (Db.of_string "a | b."));
        check "integrity" true (fails (Db.of_string "a. :- a, b.")));
  ]

(* random normal program without integrity clauses *)
let gen_nlp rand ~num_vars ~num_clauses =
  let vocab = Vocab.of_size num_vars in
  let atom () = Random.State.int rand num_vars in
  Db.make ~vocab
    (List.init num_clauses (fun _ ->
         Clause.make
           ~head:[ atom () ]
           ~pos:(List.init (Random.State.int rand 2) (fun _ -> atom ()))
           ~neg:(List.init (Random.State.int rand 2) (fun _ -> atom ()))))

let qcheck_wfs_is_partial_stable =
  QCheck.Test.make ~count:300 ~name:"WFS is a partial stable model"
    QCheck.(pair (int_bound 999999) (int_range 1 5))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = gen_nlp rand ~num_vars ~num_clauses:(num_vars * 2) in
      Pdsm.is_partial_stable db (Wfs.compute db))

let qcheck_wfs_knowledge_least =
  QCheck.Test.make ~count:200
    ~name:"WFS is knowledge-least among partial stable models"
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = gen_nlp rand ~num_vars ~num_clauses:(num_vars * 2) in
      let w = Wfs.compute db in
      List.for_all (Wfs.knowledge_le w) (Pdsm.partial_stable_models db))

let qcheck_wfs_total_is_unique_stable =
  QCheck.Test.make ~count:300
    ~name:"total WFS = the unique stable model"
    QCheck.(pair (int_bound 999999) (int_range 1 5))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = gen_nlp rand ~num_vars ~num_clauses:(num_vars * 2) in
      let w = Wfs.compute db in
      if not (Three_valued.is_total w) then true
      else
        match Dsm.stable_models db with
        | [ m ] -> Interp.equal m (Three_valued.tru w)
        | _ -> false)

let qcheck_wfs_stratified_is_perfect =
  QCheck.Test.make ~count:200
    ~name:"WFS of a stratified normal program = its perfect model"
    QCheck.(pair (int_bound 999999) (int_range 2 5))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = gen_nlp rand ~num_vars ~num_clauses:num_vars in
      if not (Ddb_db.Stratify.is_stratified db) then true
      else begin
        let w = Wfs.compute db in
        Three_valued.is_total w
        &&
        match Ddb_db.Priority.brute_perfect_models db with
        | [ m ] -> Interp.equal m (Three_valued.tru w)
        | _ -> false
      end)

(* --- Brave reasoning --- *)

(* Brave inference reads the registry record's witness search; it and every
   cautious engine below run on the paper's baseline configuration. *)
let eng = Gen.baseline ()
let witness name = (Option.get (Registry.find name)).Semantics.witness eng
let brave name db f = Option.is_some (witness name db f)

let brave_unit =
  [
    Alcotest.test_case "brave vs cautious on a v b" `Quick (fun () ->
        let db = Db.of_string "a | b." in
        let a = Formula.Atom 0 in
        check "brave gcwa a" true (brave "gcwa" db a);
        check "cautious gcwa a" false (Registry.infer_formula_in eng ~sem:"gcwa" db a);
        check "brave egcwa a" true (brave "egcwa" db a);
        check "brave dsm a" true (brave "dsm" db a);
        check "brave pws a&b" true
          (brave "pws" db (Formula.And (Formula.Atom 0, Formula.Atom 1)));
        check "brave egcwa a&b" false
          (brave "egcwa" db (Formula.And (Formula.Atom 0, Formula.Atom 1))));
    Alcotest.test_case "brave pdsm sees only value-1" `Quick (fun () ->
        (* a :- not a: a is undefined in the unique PSM: neither a nor ~a
           is bravely value-1 *)
        let db = Db.of_string "a :- not a." in
        check "a not brave" false (brave "pdsm" db (Formula.Atom 0));
        check "~a not brave" false
          (brave "pdsm" db (Formula.Not (Formula.Atom 0))));
    Alcotest.test_case "by_name dispatch" `Quick (fun () ->
        let db = Db.of_string "a | b." in
        check "gcwa" true (brave "gcwa" db (Formula.Atom 0));
        check "unknown" true (Registry.find "zzz" = None));
  ]

let qcheck_brave_duality sem_name gen_db =
  QCheck.Test.make ~count:200
    ~name:(Printf.sprintf "%s: brave(F) = ¬cautious(¬F)" sem_name)
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = gen_db rand ~num_vars ~num_clauses:(num_vars * 2) in
      let f = Gen.random_formula rand num_vars ~depth:2 in
      brave sem_name db f
      = not (Registry.infer_formula_in eng ~sem:sem_name db (Formula.not_ f)))

let brave_duality_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      qcheck_brave_duality "gcwa" Gen.dndb;
      qcheck_brave_duality "egcwa" Gen.dndb;
      qcheck_brave_duality "ddr" Gen.dddb_with_integrity;
      qcheck_brave_duality "pws" Gen.dddb_with_integrity;
      qcheck_brave_duality "dsm" Gen.dndb;
      qcheck_brave_duality "perf" Gen.dndb;
      qcheck_brave_duality "cwa" Gen.dndb;
    ]

let qcheck_brave_pdsm_reference =
  QCheck.Test.make ~count:150 ~name:"pdsm brave = 3-valued reference"
    QCheck.(pair (int_bound 999999) (int_range 1 3))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      let f = Gen.random_formula rand num_vars ~depth:2 in
      let reference =
        List.exists
          (fun i -> Three_valued.eval_formula i f = Three_valued.T)
          (Pdsm.partial_stable_models db)
      in
      brave "pdsm" db f = reference)

(* --- new reductions --- *)

let qcheck_sat_to_nlp_stable =
  QCheck.Test.make ~count:250
    ~name:"reduction: CNF sat = normal-program stable-model existence"
    QCheck.(pair (int_bound 999999) (int_range 1 5))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let cnf =
        List.init (num_vars * 2) (fun _ ->
            let len = 1 + Random.State.int rand 3 in
            List.init len (fun _ ->
                let v = Random.State.int rand num_vars in
                if Random.State.bool rand then Lit.Pos v else Lit.Neg v))
      in
      let db = Reductions.sat_to_nlp_stable ~num_vars cnf in
      Db.is_normal_program db
      && Registry.has_model_in eng ~sem:"dsm" db
         = Ddb_sat.Brute.is_sat ~num_vars cnf)

let qcheck_sat_to_nlp_counts =
  QCheck.Test.make ~count:150
    ~name:"reduction: stable models = satisfying assignments (counts)"
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let cnf =
        List.init num_vars (fun _ ->
            let len = 1 + Random.State.int rand 3 in
            List.init len (fun _ ->
                let v = Random.State.int rand num_vars in
                if Random.State.bool rand then Lit.Pos v else Lit.Neg v))
      in
      let db = Reductions.sat_to_nlp_stable ~num_vars cnf in
      let sat_count =
        List.length
          (List.filter
             (fun m -> Ddb_sat.Brute.satisfies m cnf)
             (Interp.all num_vars))
      in
      List.length (Dsm.stable_models db) = sat_count)

let qcheck_unsat_to_weak_literal =
  QCheck.Test.make ~count:250
    ~name:"reduction: CNF unsat = DDR/PWS entail the witness atom"
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let cnf =
        List.init (num_vars * 2) (fun _ ->
            let len = 1 + Random.State.int rand 3 in
            List.init len (fun _ ->
                let v = Random.State.int rand num_vars in
                if Random.State.bool rand then Lit.Pos v else Lit.Neg v))
      in
      let db, w = Reductions.unsat_to_weak_literal ~num_vars cnf in
      let unsat = not (Ddb_sat.Brute.is_sat ~num_vars cnf) in
      Registry.infer_literal_in eng ~sem:"ddr" db (Lit.Pos w) = unsat
      && Registry.infer_literal_in eng ~sem:"pws" db (Lit.Pos w) = unsat)

(* --- CWA consistency in P^NP[O(log n)] --- *)

let cwa_log_suite =
  [
    Alcotest.test_case "log and linear agree with the direct engine" `Quick
      (fun () ->
        List.iter
          (fun src ->
            let db = Db.of_string src in
            let log = Oracle_algorithms.cwa_consistency_log eng db in
            let lin = Oracle_algorithms.cwa_consistency_linear eng db in
            let direct = Registry.has_model_in eng ~sem:"cwa" db in
            check src log.Oracle_algorithms.consistent direct;
            check src lin.Oracle_algorithms.consistent direct;
            check "bound" true
              (log.Oracle_algorithms.np_queries
              <= Oracle_algorithms.log_bound log.Oracle_algorithms.universe);
            check_int "linear" (Db.num_vars db + 1)
              lin.Oracle_algorithms.np_queries)
          [ "a | b."; "a. b :- a."; "a | b. c :- a. c :- b."; "a. :- a." ]);
  ]

(* Both algorithms against the [cwa] record's brute-force model set, on
   every engine configuration: the answer is CWA(DB) ≠ ∅, the log
   algorithm stays within its bound and the per-atom one asks exactly
   n + 1 queries. *)
let qcheck_cwa_log =
  let engines = Gen.configurations () in
  let cwa = Gen.record "cwa" in
  QCheck.Test.make ~count:250
    ~name:"CWA log-consistency and linear = brute reference, within bound"
    QCheck.(pair (int_bound 999999) (int_range 1 5))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      let consistent = cwa.Semantics.reference_models db <> [] in
      List.for_all
        (fun (_, eng) ->
          let log = Oracle_algorithms.cwa_consistency_log eng db in
          let lin = Oracle_algorithms.cwa_consistency_linear eng db in
          log.Oracle_algorithms.consistent = consistent
          && lin.Oracle_algorithms.consistent = consistent
          && log.Oracle_algorithms.np_queries
             <= Oracle_algorithms.log_bound num_vars
          && lin.Oracle_algorithms.np_queries = num_vars + 1)
        engines)

(* --- grounding --- *)

let ground_suite =
  [
    Alcotest.test_case "reachability" `Quick (fun () ->
        let g =
          Ddb_ground.Grounder.of_string
            {|
              edge(a, b). edge(b, c). edge(d, d).
              start(a).
              reach(X) :- start(X).
              reach(Y) :- reach(X), edge(X, Y).
            |}
        in
        let db = g.Ddb_ground.Grounder.db in
        (* Horn program: its unique minimal model is the least model *)
        match Models.minimal_models db with
        | [ m ] ->
          let holds p args = Ddb_ground.Grounder.holds_in g m p args in
          check "reach a" true (holds "reach" [ "a" ]);
          check "reach b" true (holds "reach" [ "b" ]);
          check "reach c" true (holds "reach" [ "c" ]);
          check "reach d" false (holds "reach" [ "d" ])
        | _ -> Alcotest.fail "expected a unique minimal model");
    Alcotest.test_case "game: win/lose on a DAG" `Quick (fun () ->
        let g =
          Ddb_ground.Grounder.of_string
            {|
              move(a, b). move(b, c).
              win(X) :- move(X, Y), not win(Y).
            |}
        in
        let db = g.Ddb_ground.Grounder.db in
        let w = Wfs.compute db in
        let value p args =
          match Ddb_ground.Grounder.atom_id g p args with
          | Some id -> Three_valued.value w id
          | None -> Three_valued.F
        in
        (* c has no moves: lost; b -> c: won; a -> b: lost *)
        check "win(b)" true (value "win" [ "b" ] = Three_valued.T);
        check "win(a)" true (value "win" [ "a" ] = Three_valued.F);
        check "win(c)" true (value "win" [ "c" ] = Three_valued.F));
    Alcotest.test_case "game: cycle is undefined under WFS" `Quick (fun () ->
        let g =
          Ddb_ground.Grounder.of_string
            "move(a, b). move(b, a). win(X) :- move(X, Y), not win(Y)."
        in
        let w = Wfs.compute g.Ddb_ground.Grounder.db in
        let value p args =
          match Ddb_ground.Grounder.atom_id g p args with
          | Some id -> Three_valued.value w id
          | None -> Three_valued.F
        in
        check "win(a) undef" true (value "win" [ "a" ] = Three_valued.U);
        check "win(b) undef" true (value "win" [ "b" ] = Three_valued.U));
    Alcotest.test_case "disjunctive datalog" `Quick (fun () ->
        let g =
          Ddb_ground.Grounder.of_string
            "r(a). r(b). p(X) | q(X) :- r(X)."
        in
        let db = g.Ddb_ground.Grounder.db in
        check_int "four minimal models" 4
          (List.length (Models.minimal_models db)));
    Alcotest.test_case "integrity clauses ground too" `Quick (fun () ->
        let g =
          Ddb_ground.Grounder.of_string
            "r(a). p(X) | q(X) :- r(X). :- p(X)."
        in
        let db = g.Ddb_ground.Grounder.db in
        match Models.minimal_models db with
        | [ m ] ->
          check "q(a)" true (Ddb_ground.Grounder.holds_in g m "q" [ "a" ])
        | _ -> Alcotest.fail "expected a unique minimal model");
    Alcotest.test_case "safety violation rejected" `Quick (fun () ->
        check "unsafe" true
          (try
             ignore (Ddb_ground.Grounder.of_string "p(X) :- not q(X).");
             false
           with Ddb_ground.Grounder.Error _ -> true));
    Alcotest.test_case "arity clash rejected" `Quick (fun () ->
        check "arity" true
          (try
             ignore (Ddb_ground.Grounder.of_string "p(a). p(a, b).");
             false
           with Ddb_ground.Grounder.Error _ -> true));
    Alcotest.test_case "impossible atoms are not in the universe" `Quick
      (fun () ->
        let g =
          Ddb_ground.Grounder.of_string
            "edge(a, b). reach(Y) :- reach(X), edge(X, Y)."
        in
        (* no start fact: nothing reachable; reach atoms never derivable *)
        check "reach(b) absent" true
          (Ddb_ground.Grounder.atom_id g "reach" [ "b" ] = None));
    Alcotest.test_case "propositional datalog" `Quick (fun () ->
        let g = Ddb_ground.Grounder.of_string "p :- not q. q :- r." in
        let db = g.Ddb_ground.Grounder.db in
        check "stable model" true (Registry.has_model_in eng ~sem:"dsm" db);
        match Dsm.stable_models db with
        | [ m ] -> check "p" true (Ddb_ground.Grounder.holds_in g m "p" [])
        | _ -> Alcotest.fail "unique stable model expected");
  ]

(* --- witnesses --- *)

(* Every brave witness must (a) satisfy the query and (b) belong to the
   semantics' model set. *)
let qcheck_witnesses_are_models =
  QCheck.Test.make ~count:200
    ~name:"brave witnesses satisfy F and belong to the model set"
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      let f = Gen.random_formula rand num_vars ~depth:2 in
      let check_witness models_of name =
        match witness name db f with
        | None -> true
        | Some (Semantics.Two_valued m) ->
          Formula.eval m f
          && List.exists (Interp.equal m) (models_of db)
        | Some (Semantics.Three_valued _) -> false
      in
      check_witness Models.brute_minimal_models "egcwa"
      && check_witness Dsm.reference_models "dsm"
      && check_witness Perf.reference_models "perf"
      && check_witness (Gen.record "gcwa").Semantics.reference_models "gcwa"
      && check_witness Cwa.reference_models "cwa")

let qcheck_pws_witnesses =
  QCheck.Test.make ~count:200 ~name:"PWS brave witnesses are possible models"
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dddb_with_integrity rand ~num_vars ~num_clauses:(num_vars * 2) in
      let f = Gen.random_formula rand num_vars ~depth:2 in
      match witness "pws" db f with
      | None -> true
      | Some (Semantics.Two_valued m) ->
        Formula.eval m f && Ddb_db.Possible.is_possible_model db m
      | Some (Semantics.Three_valued _) -> false)

let qcheck_pdsm_witnesses =
  QCheck.Test.make ~count:100 ~name:"PDSM brave witnesses are partial stable"
    QCheck.(pair (int_bound 999999) (int_range 1 3))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      let f = Gen.random_formula rand num_vars ~depth:2 in
      match witness "pdsm" db f with
      | None -> true
      | Some (Semantics.Three_valued i) ->
        Three_valued.eval_formula i f = Three_valued.T
        && Pdsm.is_partial_stable db i
      | Some (Semantics.Two_valued _) -> false)

(* Witness completeness: the search returns [None] exactly when no
   reference model gives F the value 1, and otherwise one that does.  A
   two-valued model is compared as a total 3-valued one; PDSM's reference
   set is its partial stable models, every other semantics'
   its record's [reference_models]. *)
let witness_complete (s : Semantics.t) eng db f =
  let models =
    if s.Semantics.name = "pdsm" then Pdsm.partial_stable_models db
    else List.map Three_valued.of_two_valued (s.Semantics.reference_models db)
  in
  let sat i = Three_valued.eval_formula i f = Three_valued.T in
  match s.Semantics.witness eng db f with
  | None -> not (List.exists sat models)
  | Some w ->
    let i =
      match w with
      | Semantics.Two_valued m -> Three_valued.of_two_valued m
      | Semantics.Three_valued i -> i
    in
    sat i && List.exists (Three_valued.equal i) models

(* Each registry semantics on the database family it is defined for. *)
let db_family = function
  | "ddr" | "pws" -> Gen.dddb_with_integrity
  | "icwa" ->
    fun rand ~num_vars ~num_clauses ->
      Gen.stratified_db ~integrity:true rand ~num_vars ~num_clauses ~layers:2
  | _ -> Gen.dndb

(* In every engine configuration, each living for the whole test.  The
   cautious query ¬F runs first, so on the cached engines the witness of F
   is read back from the entry that query's search filled. *)
let qcheck_witness_completeness name =
  let engines = Gen.configurations () in
  QCheck.Test.make ~count:(Gen.qcheck_count 100)
    ~name:(Printf.sprintf "%s: witness = None iff no reference model of F" name)
    QCheck.(pair (int_bound 999999) (int_range 1 3))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = db_family name rand ~num_vars ~num_clauses:(num_vars * 2) in
      let f = Gen.random_formula rand num_vars ~depth:2 in
      List.for_all
        (fun (_, eng) ->
          let s = Gen.record name in
          (not (s.Semantics.applicable db))
          || (name = "pdsm"
             || s.Semantics.infer_formula eng db (Formula.not_ f)
                = Option.is_none (s.Semantics.witness eng db f))
             && witness_complete s eng db f)
        engines)

(* The partition-parametric witnesses at a random ⟨P;Q;Z⟩. *)
let qcheck_partition_witness_completeness =
  QCheck.Test.make ~count:(Gen.qcheck_count 100)
    ~name:"ccwa/ecwa/circ/icwa witnesses at a random partition are complete"
    QCheck.(pair (int_bound 999999) (int_range 1 3))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      let strat =
        Gen.stratified_db ~integrity:true rand ~num_vars
          ~num_clauses:(num_vars * 2) ~layers:2
      in
      let part = Gen.random_partition rand num_vars in
      let f = Gen.random_formula rand num_vars ~depth:2 in
      let ok db sem =
        let s = Gen.record ~part sem in
        let models = s.Semantics.reference_models db in
        match s.Semantics.witness eng db f with
        | None -> not (List.exists (fun m -> Formula.eval m f) models)
        | Some (Semantics.Two_valued m) ->
          Formula.eval m f && List.exists (Interp.equal m) models
        | Some (Semantics.Three_valued _) -> false
      in
      ok db "ccwa" && ok db "ecwa" && ok db "circ" && ok strat "icwa")

let witness_tests =
  List.map QCheck_alcotest.to_alcotest
    ([ qcheck_witnesses_are_models; qcheck_pws_witnesses; qcheck_pdsm_witnesses ]
    @ List.map qcheck_witness_completeness Registry.names
    @ [ qcheck_partition_witness_completeness ])

(* --- QBF encodings of minimal-model queries --- *)

let qcheck_qbf_encoding_gcwa =
  QCheck.Test.make ~count:200
    ~name:"QBF encoding of 'some minimal model contains x' = minimal engine"
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      let x = Gen.atom rand num_vars in
      Qbf_encodings.gcwa_refutes_neg_literal_qbf db x
      = not (Registry.infer_literal_in eng ~sem:"gcwa" db (Lit.Neg x)))

let qcheck_qbf_encoding_egcwa =
  QCheck.Test.make ~count:150
    ~name:"QBF encoding of EGCWA entailment = minimal engine"
    QCheck.(pair (int_bound 999999) (int_range 1 3))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      let f = Gen.random_formula rand num_vars ~depth:2 in
      Qbf_encodings.egcwa_entails_qbf db f
      = Registry.infer_formula_in eng ~sem:"egcwa" db f)

let qcheck_qbf_encoding_naive =
  QCheck.Test.make ~count:100
    ~name:"QBF encoding also agrees with truth-table QBF evaluation"
    QCheck.(pair (int_bound 999999) (int_range 1 3))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:num_vars in
      let x = Gen.atom rand num_vars in
      let qbf = Qbf_encodings.some_minimal_model_with_atom db x in
      Ddb_qbf.Naive.valid qbf = Ddb_qbf.Cegar.valid qbf)

let qbf_encoding_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      qcheck_qbf_encoding_gcwa;
      qcheck_qbf_encoding_egcwa;
      qcheck_qbf_encoding_naive;
    ]

let suites =
  [
    ("ext.wfs", wfs_suite);
    ( "ext.wfs.properties",
      List.map QCheck_alcotest.to_alcotest
        [
          qcheck_wfs_is_partial_stable;
          qcheck_wfs_knowledge_least;
          qcheck_wfs_total_is_unique_stable;
          qcheck_wfs_stratified_is_perfect;
        ] );
    ("ext.brave", brave_unit);
    ("ext.brave.duality", brave_duality_tests);
    ( "ext.brave.pdsm",
      [ QCheck_alcotest.to_alcotest qcheck_brave_pdsm_reference ] );
    ( "ext.reductions",
      List.map QCheck_alcotest.to_alcotest
        [
          qcheck_sat_to_nlp_stable;
          qcheck_sat_to_nlp_counts;
          qcheck_unsat_to_weak_literal;
        ] );
    ("ext.cwa_log", cwa_log_suite);
    ("ext.cwa_log.properties", [ QCheck_alcotest.to_alcotest qcheck_cwa_log ]);
    ("ext.ground", ground_suite);
    ("ext.witnesses", witness_tests);
    ("ext.qbf_encodings", qbf_encoding_tests);
  ]
