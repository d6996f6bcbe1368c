open Ddb_logic
open Ddb_db
open Ddb_core

let check = Alcotest.(check bool)

(* Direct questions run on the paper's baseline configuration. *)
let eng = Gen.baseline ()

(* The four-configuration differential on random small databases: every
   engine configuration (cache on/off × fast path on/off) answers each
   model-existence / literal / formula question as the semantics' reference
   model set does.  The engines live for the whole test, so the cached ones
   answer each database against memo tables warmed by the previous ones. *)
let engines_agree ?(only_applicable = true) sem gen_db =
  let engines = Gen.configurations () in
  QCheck.Test.make ~count:250
    ~name:(Printf.sprintf "%s: oracle engine = reference engine in every configuration" sem)
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = gen_db rand ~num_vars ~num_clauses:(num_vars * 2) in
      let applicable = (Option.get (Registry.find sem)).Semantics.applicable in
      if only_applicable && not (applicable db) then true
      else begin
        let f = Gen.random_formula rand num_vars ~depth:2 in
        (* up to one atom past the universe: the records pad the database *)
        let lit =
          let x = Random.State.int rand (num_vars + 1) in
          if Random.State.bool rand then Lit.Pos x else Lit.Neg x
        in
        match Gen.differential ~engines ~sem db ~lits:[ lit ] ~formulas:[ f ] with
        | [] -> true
        | errors -> QCheck.Test.fail_report (String.concat "; " errors)
      end)

let agreement_tests =
  (* PDSM is excluded here: its model set is 3-valued, so its record's
     reference is not the entailment base; it gets its own tests below.
     ICWA's databases carry integrity clauses, which can exclude every ICWA
     model, so its existence answer is checked beyond the O(1) cell. *)
  List.map QCheck_alcotest.to_alcotest
    [
      engines_agree "cwa" Gen.dndb;
      engines_agree "gcwa" Gen.dndb;
      engines_agree "egcwa" Gen.dndb;
      engines_agree "ccwa" Gen.dndb;
      engines_agree "ecwa" Gen.dndb;
      engines_agree "circ" Gen.dndb;
      engines_agree "ddr" Gen.dddb_with_integrity;
      engines_agree "pws" Gen.dddb_with_integrity;
      engines_agree "perf" Gen.dndb;
      engines_agree "dsm" Gen.dndb;
      engines_agree "icwa" (fun rand ~num_vars ~num_clauses ->
          Gen.stratified_db ~integrity:true rand ~num_vars ~num_clauses
            ~layers:2);
    ]

(* The partition-parametric records at a random ⟨P;Q;Z⟩ against their own
   reference model sets: two partitions per database, asked on every engine
   configuration.  The engines live for the whole test, so an answer
   memoized at one partition and served at the other would show; half the
   databases are definite, whose fast-path cells hold at ⟨V;∅;∅⟩ only.
   Each partition asks one literal of random sign per atom class it has
   (P, Q, Z): ECWA and CIRC answer each class by a different procedure. *)
let partition_law sem gen_db =
  let engines = Gen.configurations () in
  QCheck.Test.make ~count:250
    ~name:(Printf.sprintf "%s with random partition = reference" sem)
    QCheck.(pair (int_bound 999999) (int_range 2 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = gen_db rand ~num_vars ~num_clauses:(num_vars * 2) in
      let f = Gen.random_formula rand num_vars ~depth:2 in
      let lit_of cls =
        match Interp.to_list cls with
        | [] -> None
        | xs ->
          let x = List.nth xs (Random.State.int rand (List.length xs)) in
          Some (if Random.State.bool rand then Lit.Pos x else Lit.Neg x)
      in
      let asked =
        List.map
          (fun part ->
            ( part,
              List.filter_map lit_of
                [ Partition.p part; Partition.q part; Partition.z part ] ))
          (List.init 2 (fun _ -> Gen.random_partition rand num_vars))
      in
      List.for_all
        (fun (part, lits) ->
          let reference =
            (Gen.record ~part eng sem).Semantics.reference_models db
          in
          let ref_infer f =
            List.for_all (fun m -> Formula.eval m f) reference
          in
          List.for_all
            (fun (_, e) ->
              let s = Gen.record ~part e sem in
              s.Semantics.has_model db = (reference <> [])
              && s.Semantics.infer_formula db f = ref_infer f
              && List.for_all
                   (fun l ->
                     s.Semantics.infer_literal db l
                     = ref_infer (Formula.of_lit l))
                   lits)
            engines)
        asked)

(* A partition places every atom of the database it is asked about: a
   database over 4 atoms asked at a partition over 2 is refused by every
   field of every parametric record, with both sizes named, before any
   engine op sees the mismatched universes. *)
let wider_database_is_refused () =
  let db = Db.of_string "a | b. c :- a. d." in
  let part = Partition.of_lists 2 ~p:[ 0 ] ~q:[ 1 ] ~z:[] in
  let expected =
    Invalid_argument
      "Semantics: a database over 4 atoms asked at a partition over 2"
  in
  List.iter
    (fun name ->
      let s = Option.get (Registry.find_in ~part eng name) in
      List.iter
        (fun (field, ask) ->
          Alcotest.check_raises (name ^ " " ^ field) expected (fun () ->
              ignore (ask ())))
        [
          ("has_model", fun () -> s.Semantics.has_model db);
          ("infer_literal", fun () -> s.Semantics.infer_literal db (Lit.Neg 2));
          ("infer_formula", fun () -> s.Semantics.infer_formula db (Formula.Atom 0));
          ("witness", fun () -> Option.is_some (s.Semantics.witness db (Formula.Atom 0)));
        ])
    [ "ccwa"; "ecwa"; "circ"; "icwa" ]

let partition_tests =
  let dndb_or_definite rand ~num_vars ~num_clauses =
    if Random.State.bool rand then Gen.dndb rand ~num_vars ~num_clauses
    else Gen.definite_db rand ~num_vars ~num_clauses
  in
  Alcotest.test_case "a database wider than the partition is refused" `Quick
    wider_database_is_refused
  :: List.map QCheck_alcotest.to_alcotest
       [
         partition_law "ccwa" dndb_or_definite;
         partition_law "ecwa" dndb_or_definite;
         partition_law "circ" dndb_or_definite;
         partition_law "icwa" (fun rand ~num_vars ~num_clauses ->
             Gen.stratified_db ~integrity:true rand ~num_vars ~num_clauses
               ~layers:2);
       ]

(* --- the paper's equivalences --- *)

(* ECWA = CIRC (Lifschitz).  The circ record shares ECWA's decision
   procedures, so the independent side is the model sets: the ecwa
   record's reference models come from minimality, the circ record's from
   the primed circumscription schema. *)
let qcheck_ecwa_equals_circ =
  QCheck.Test.make ~count:250 ~name:"ECWA = CIRC (schema vs minimality)"
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      let part = Gen.random_partition rand num_vars in
      let f = Gen.random_formula rand num_vars ~depth:2 in
      let ecwa = Gen.record ~part eng "ecwa"
      and circ = Gen.record ~part eng "circ" in
      ecwa.Semantics.infer_formula db f = circ.Semantics.infer_formula db f
      && Gen.interp_list_equal
           (ecwa.Semantics.reference_models db)
           (circ.Semantics.reference_models db))

(* EGCWA(DB) = MM(DB). *)
let qcheck_egcwa_is_mm =
  QCheck.Test.make ~count:250 ~name:"EGCWA models = minimal models"
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      Gen.interp_list_equal
        ((Option.get (Registry.find "egcwa")).Semantics.reference_models db)
        (Models.brute_minimal_models db))

(* On positive databases DSM(DB) = MM(DB) (reducts are identities). *)
let qcheck_dsm_positive_is_mm =
  QCheck.Test.make ~count:250 ~name:"DSM = MM on positive databases"
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.positive_db rand ~num_vars ~num_clauses:(num_vars * 2) in
      Gen.interp_list_equal (Dsm.reference_models db)
        (Models.brute_minimal_models db))

(* On positive databases perfect models = minimal models (no strict
   priorities), so PERF collapses onto EGCWA. *)
let qcheck_perf_positive_is_mm =
  QCheck.Test.make ~count:250 ~name:"PERF = MM on positive databases"
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.positive_db rand ~num_vars ~num_clauses:(num_vars * 2) in
      Gen.interp_list_equal (Perf.reference_models db)
        (Models.brute_minimal_models db))

(* GCWA = CCWA with the total partition: the registry's gcwa record
   against the ccwa record packed at ⟨V;∅;∅⟩ of the database padded for
   the query, whose atoms may reach one past the universe. *)
let qcheck_gcwa_is_ccwa_total =
  QCheck.Test.make ~count:250 ~name:"GCWA = CCWA at Q = Z = ∅"
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      let f = Gen.random_formula rand (num_vars + 1) ~depth:2 in
      let part =
        Partition.minimize_all (Db.num_vars (Semantics.for_query db f))
      in
      Registry.infer_formula_in eng ~sem:"gcwa" db f
      = (Gen.record ~part eng "ccwa").Semantics.infer_formula db f)

(* Total (2-valued) partial stable models = disjunctive stable models. *)
let qcheck_pdsm_total_is_dsm =
  QCheck.Test.make ~count:200 ~name:"total PDSM models = DSM models"
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      Gen.interp_list_equal (Pdsm.reference_models db) (Dsm.reference_models db))

(* PDSM oracle engine vs 3-valued brute force, on normal databases and on
   negation-free ones with integrity clauses: existence, inference, and a
   witness that gives F the value 1 and is partial stable, absent exactly
   when no partial stable model gives F the value 1. *)
let qcheck_pdsm_engines_agree =
  QCheck.Test.make ~count:150 ~name:"pdsm: oracle engine = 3-valued reference"
    QCheck.(triple (int_bound 999999) (int_range 1 6) bool)
    (fun (seed, num_vars, integrity) ->
      let rand = Random.State.make [| seed |] in
      let gen = if integrity then Gen.dddb_with_integrity else Gen.dndb in
      let db = gen rand ~num_vars ~num_clauses:(num_vars * 2) in
      let reference = Pdsm.partial_stable_models db in
      let f = Gen.random_formula rand num_vars ~depth:2 in
      let value_1 i = Three_valued.eval_formula i f = Three_valued.T in
      let witness_ok =
        match (Option.get (Registry.find_in eng "pdsm")).Semantics.witness db f with
        | None -> not (List.exists value_1 reference)
        | Some (Semantics.Three_valued i) ->
          value_1 i && Pdsm.is_partial_stable db i
        | Some (Semantics.Two_valued _) -> false
      in
      Registry.has_model_in eng ~sem:"pdsm" db = (reference <> [])
      && Registry.infer_formula_in eng ~sem:"pdsm" db f
         = List.for_all value_1 reference
      && witness_ok)

(* The 3-valued minimality SAT check against explicit 3-valued search. *)
let qcheck_pdsm_stability_check =
  QCheck.Test.make ~count:150 ~name:"pdsm: SAT stability check = brute force"
    QCheck.(pair (int_bound 999999) (int_range 1 3))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      List.for_all
        (fun i ->
          let brute_stable =
            Pdsm.satisfies_db db i
            && not
                 (List.exists
                    (fun j ->
                      Three_valued.lt j i
                      && Reduct.satisfies_three_valued j (Reduct.three_valued db i))
                    (Three_valued.all num_vars))
          in
          Pdsm.is_partial_stable db i = brute_stable)
        (Three_valued.all num_vars))

(* --- stable models: textbook cases --- *)

let dsm_unit =
  [
    Alcotest.test_case "even loop: two stable models" `Quick (fun () ->
        let db = Db.of_string "a :- not b. b :- not a." in
        let i = Interp.of_list (Db.num_vars db) in
        check "two" true
          (Gen.interp_list_equal (Dsm.reference_models db) [ i [ 0 ]; i [ 1 ] ]);
        check "oracle agrees" true
          (Gen.interp_list_equal (Dsm.stable_models db) [ i [ 0 ]; i [ 1 ] ]));
    Alcotest.test_case "odd loop: no stable model" `Quick (fun () ->
        let db = Db.of_string "a :- not a." in
        check "none" false (Registry.has_model_in eng ~sem:"dsm" db));
    Alcotest.test_case "disjunctive stable: a v b" `Quick (fun () ->
        let db = Db.of_string "a | b." in
        let i = Interp.of_list (Db.num_vars db) in
        check "minimal ones" true
          (Gen.interp_list_equal (Dsm.stable_models db) [ i [ 0 ]; i [ 1 ] ]));
    Alcotest.test_case "constraint kills stable model" `Quick (fun () ->
        let db = Db.of_string "a :- not b. :- a." in
        check "none" false (Registry.has_model_in eng ~sem:"dsm" db));
    Alcotest.test_case "supported but not stable" `Quick (fun () ->
        (* a :- a has the models {} and {a}; only {} is stable. *)
        let db = Db.of_string "a :- a. b." in
        let i = Interp.of_list (Db.num_vars db) in
        check "only {b}" true
          (Gen.interp_list_equal (Dsm.stable_models db) [ i [ 1 ] ]));
  ]

let pdsm_unit =
  [
    Alcotest.test_case "odd loop: a undefined" `Quick (fun () ->
        let db = Db.of_string "a :- not a." in
        let psms = Pdsm.partial_stable_models db in
        check "exactly one" true (List.length psms = 1);
        (match psms with
        | [ i ] ->
          check "a = 1/2" true (Three_valued.value i 0 = Three_valued.U)
        | _ -> Alcotest.fail "expected one"));
    Alcotest.test_case "even loop: three PSMs" `Quick (fun () ->
        (* {a}, {b} and the well-founded all-undefined model. *)
        let db = Db.of_string "a :- not b. b :- not a." in
        check "three" true (List.length (Pdsm.partial_stable_models db) = 3));
    Alcotest.test_case "fact is certain" `Quick (fun () ->
        let db = Db.of_string "a." in
        check "infers a" true
          (Registry.infer_literal_in eng ~sem:"pdsm" db (Lit.Pos 0)));
  ]

let icwa_unit =
  [
    Alcotest.test_case "stratified consistency is O(1)" `Quick (fun () ->
        let icwa src =
          Registry.has_model_in eng ~sem:"icwa" (Db.of_string src)
        in
        check "yes" true (icwa "b. a :- not b.");
        check "no (unstratified)" false (icwa "a :- not a."));
    Alcotest.test_case "integrity clauses can exclude every ICWA model" `Quick
      (fun () ->
        (* Stratified, but the constraint kills the only model {a}: the
           O(1) stratifiability answer does not apply. *)
        let db = Db.of_string "a. :- a." in
        check "no reference model" true
          ((Gen.record eng "icwa").Semantics.reference_models db = []);
        check "no model" false (Registry.has_model_in eng ~sem:"icwa" db);
        List.iter
          (fun (config, eng) ->
            check config false (Registry.has_model_in eng ~sem:"icwa" db))
          (Gen.configurations ());
        check "satisfiable constraint keeps the model" true
          (Registry.has_model_in eng ~sem:"icwa"
             (Db.of_string "b. a :- not b. :- a.")));
    Alcotest.test_case "icwa on b :- not a infers b" `Quick (fun () ->
        let db = Db.of_string "b :- not a." in
        let vocab = Db.vocab db in
        let icwa f = Registry.infer_formula_in eng ~sem:"icwa" db f in
        check "b" true (icwa (Parse.formula vocab "b"));
        check "not a" true (icwa (Parse.formula vocab "~a")));
  ]

(* PERF learns from its failed perfectness checks: the preferable model N
   a check finds excludes every candidate N is preferable to.  On this
   stratified disjunctive database the search without that learning walks
   minimal models for 10 200 SAT calls; ICWA, which equals PERF on
   stratified databases, gives the expected answer. *)
let perf_unit =
  [
    Alcotest.test_case "stratified n=80: PERF ~x79 in at most 40 SAT calls"
      `Quick (fun () ->
        let db =
          Ddb_workload.Random_db.stratified ~layers:3 ~head_max:2 ~seed:0
            ~num_vars:80 ()
        in
        let q = Lit.Neg 79 and fresh = Ddb_engine.Engine.create in
        let icwa = Registry.infer_literal_in (fresh ()) ~sem:"icwa" db q in
        let eng = fresh () in
        let perf = Registry.infer_literal_in eng ~sem:"perf" db q in
        check "ICWA answers false" false icwa;
        check "PERF = ICWA" icwa perf;
        let calls = (Ddb_engine.Engine.totals eng).sat_solve_calls in
        if calls > 40 then
          Alcotest.failf "PERF made %d SAT calls (at most 40)" calls);
  ]

(* ICWA captures PERF on stratified databases (the purpose it was introduced
   for): with the total partition, the ICWA model set coincides with the
   perfect models. *)
let qcheck_icwa_captures_perf =
  QCheck.Test.make ~count:200 ~name:"ICWA = PERF on stratified databases"
    QCheck.(pair (int_bound 999999) (int_range 2 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db =
        Gen.stratified_db rand ~num_vars ~num_clauses:(num_vars * 2) ~layers:2
      in
      Gen.interp_list_equal
        ((Gen.record eng "icwa").Semantics.reference_models db)
        (Perf.reference_models db))

(* --- oracle algorithms: the P^Σ₂ᵖ[O(log n)] machinery --- *)

let oracle_alg_unit =
  [
    Alcotest.test_case "log bound respected" `Quick (fun () ->
        let db = Db.of_string "a | b. c | d. e :- a." in
        let report = Oracle_algorithms.gcwa_formula_in eng db (Formula.Atom 4) in
        check "within bound" true
          (report.Oracle_algorithms.sigma2_queries
          <= Oracle_algorithms.log_bound report.Oracle_algorithms.p_size));
  ]

let qcheck_oracle_log_agrees =
  QCheck.Test.make ~count:250
    ~name:"log-oracle GCWA/CCWA inference = CCWA inference, within bound"
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      let part = Gen.random_partition rand num_vars in
      let f = Gen.random_formula rand num_vars ~depth:2 in
      let log_report = Oracle_algorithms.entails_log_in eng db part f in
      let linear_report = Oracle_algorithms.entails_linear eng db part f in
      let direct = (Gen.record ~part eng "ccwa").Semantics.infer_formula db f in
      log_report.Oracle_algorithms.answer = direct
      && linear_report.Oracle_algorithms.answer = direct
      && log_report.Oracle_algorithms.sigma2_queries
         <= Oracle_algorithms.log_bound (Interp.cardinal (Partition.p part)))

(* --- reductions --- *)

let gen_ef_qbf seed =
  let rand = Random.State.make [| seed |] in
  let n1 = 1 + Random.State.int rand 2 in
  let n2 = 1 + Random.State.int rand 2 in
  let block1 = List.init n1 Fun.id in
  let block2 = List.init n2 (fun i -> n1 + i) in
  let matrix = Gen.random_formula rand (n1 + n2) ~depth:2 in
  (* ensure the matrix only mentions quantified atoms: Gen.random_formula
     draws from [0, n1+n2), which is exactly the quantified set *)
  Ddb_qbf.Qbf.make ~prefix:Ddb_qbf.Qbf.Exists_forall ~num_vars:(n1 + n2)
    ~block1 ~block2 ~matrix

let qcheck_qbf_to_gcwa =
  QCheck.Test.make ~count:250
    ~name:"reduction: QBF validity = w in some minimal model = ¬(GCWA ⊨ ¬w)"
    QCheck.(int_bound 999999)
    (fun seed ->
      let qbf = gen_ef_qbf seed in
      let db, w = Reductions.qbf_to_gcwa qbf in
      let valid = Ddb_qbf.Naive.valid qbf in
      Reductions.gcwa_image_answer db w = valid
      && Registry.infer_literal_in eng ~sem:"gcwa" db (Lit.Neg w) = not valid
      && Registry.infer_literal_in eng ~sem:"egcwa" db (Lit.Neg w) = not valid)

let qcheck_qbf_to_dsm =
  QCheck.Test.make ~count:250
    ~name:"reduction: QBF validity = DSM model existence"
    QCheck.(int_bound 999999)
    (fun seed ->
      let qbf = gen_ef_qbf seed in
      let db = Reductions.qbf_to_dsm_exists qbf in
      Registry.has_model_in eng ~sem:"dsm" db = Ddb_qbf.Naive.valid qbf)

let qcheck_sat_to_egcwa =
  QCheck.Test.make ~count:250
    ~name:"reduction: CNF satisfiability = EGCWA model existence"
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
      let db = Reductions.sat_to_egcwa_exists ~num_vars cnf in
      Registry.has_model_in eng ~sem:"egcwa" db
      = Ddb_sat.Brute.is_sat ~num_vars cnf)

let qcheck_uminsat =
  QCheck.Test.make ~count:250 ~name:"UMINSAT = brute unique-minimal-model"
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      Reductions.has_unique_minimal_model db
      = (List.length (Models.brute_minimal_models db) = 1))

(* --- tractable cells --- *)

let qcheck_ddr_pws_poly_literal =
  QCheck.Test.make ~count:250
    ~name:"DDR/PWS negative-literal inference: poly path = reference"
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.positive_db rand ~num_vars ~num_clauses:(num_vars * 2) in
      let x = Gen.atom rand num_vars in
      let ddr_ref =
        List.for_all
          (fun m -> not (Interp.mem m x))
          (Ddr.reference_models db)
      in
      let pws_ref =
        List.for_all
          (fun m -> not (Interp.mem m x))
          (Pws.reference_models db)
      in
      Registry.infer_literal_in eng ~sem:"ddr" db (Lit.Neg x) = ddr_ref
      && Registry.infer_literal_in eng ~sem:"pws" db (Lit.Neg x) = pws_ref)

(* Zero oracle calls on the tractable paths. *)
let poly_no_oracle_unit =
  [
    Alcotest.test_case "DDR literal path makes no SAT calls" `Quick (fun () ->
        let db = Db.of_string "a | b. c :- a, b. d :- c." in
        let before = Ddb_sat.Stats.snapshot () in
        ignore (Registry.infer_literal_in eng ~sem:"ddr" db (Lit.Neg 3));
        let delta = Ddb_sat.Stats.delta before in
        check "no sat calls" true (delta.Ddb_sat.Stats.sat = 0);
        check "no sigma2 calls" true (delta.Ddb_sat.Stats.sigma2 = 0));
    Alcotest.test_case "EGCWA existence is O(1) on Table-1 DBs" `Quick
      (fun () ->
        let db = Db.of_string "a | b. c :- a." in
        let before = Ddb_sat.Stats.snapshot () in
        check "exists" true (Registry.has_model_in eng ~sem:"egcwa" db);
        check "no oracle" true ((Ddb_sat.Stats.delta before).Ddb_sat.Stats.sat = 0));
    Alcotest.test_case "ICWA existence is O(1) given stratification" `Quick
      (fun () ->
        let db = Db.of_string "b. a :- not b." in
        let before = Ddb_sat.Stats.snapshot () in
        check "exists" true (Registry.has_model_in eng ~sem:"icwa" db);
        check "no oracle" true ((Ddb_sat.Stats.delta before).Ddb_sat.Stats.sat = 0));
  ]

(* The poly shortcut's precondition: it is only sound without integrity
   clauses (Example 3.1), and [Ddr] enforces that with Invalid_argument. *)
let ddr_poly_precondition_unit =
  [
    Alcotest.test_case "entails_neg_literal_poly rejects integrity clauses"
      `Quick (fun () ->
        let db = Db.of_string "a | b. :- a, b." in
        Alcotest.check_raises "precondition"
          (Invalid_argument
             "Ddr.entails_neg_literal_poly: integrity clauses present")
          (fun () -> ignore (Ddr.entails_neg_literal_poly db 0)));
    Alcotest.test_case "entails_neg_literal_poly rejects negation" `Quick
      (fun () ->
        let db = Db.of_string "a :- not b." in
        Alcotest.check_raises "DDDB only"
          (Invalid_argument "Ddr: the DDR is defined for DDDBs (no negation)")
          (fun () -> ignore (Ddr.entails_neg_literal_poly db 0)));
    Alcotest.test_case "atoms outside the universe are trivially negated"
      `Quick (fun () ->
        let db = Db.of_string "a | b." in
        check "x >= n" true (Ddr.entails_neg_literal_poly db (Db.num_vars db)));
  ]

(* On integrity-clause-free DDDBs the shortcut must agree with both literal
   entry points: [infer_literal] (which routes negatives through it) and the
   general SAT path [infer_formula] on ¬x. *)
let qcheck_ddr_poly_agrees =
  QCheck.Test.make ~count:250
    ~name:"DDR poly shortcut = infer_literal = infer_formula (no ICs)"
    QCheck.(pair (int_bound 999999) (int_range 1 5))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.positive_db rand ~num_vars ~num_clauses:(num_vars * 2) in
      List.for_all
        (fun x ->
          let poly = Ddr.entails_neg_literal_poly db x in
          poly = Registry.infer_literal_in eng ~sem:"ddr" db (Lit.Neg x)
          && poly
             = Registry.infer_formula_in eng ~sem:"ddr" db
                 (Formula.Not (Formula.Atom x)))
        (List.init num_vars Fun.id))

(* --- paper Example 3.1: DDR vs GCWA on integrity-blind inference --- *)

let example_31 =
  [
    Alcotest.test_case "Example 3.1: DDR misses ¬c, GCWA gets it" `Quick
      (fun () ->
        let db = Db.of_string "a | b. :- a, b. c :- a, b." in
        let c = 2 in
        check "DDR does not infer ~c" false
          (Registry.infer_literal_in eng ~sem:"ddr" db (Lit.Neg c));
        check "GCWA infers ~c" true
          (Registry.infer_literal_in eng ~sem:"gcwa" db (Lit.Neg c));
        check "EGCWA infers ~c" true
          (Registry.infer_literal_in eng ~sem:"egcwa" db (Lit.Neg c)));
  ]

let suites =
  [
    ("semantics.agreement", agreement_tests);
    ("semantics.partitioned", partition_tests);
    ( "semantics.identities",
      List.map QCheck_alcotest.to_alcotest
        [
          qcheck_ecwa_equals_circ;
          qcheck_egcwa_is_mm;
          qcheck_dsm_positive_is_mm;
          qcheck_perf_positive_is_mm;
          qcheck_gcwa_is_ccwa_total;
          qcheck_pdsm_total_is_dsm;
          qcheck_icwa_captures_perf;
        ] );
    ("semantics.dsm", dsm_unit);
    ("semantics.pdsm", pdsm_unit);
    ( "semantics.pdsm.properties",
      List.map QCheck_alcotest.to_alcotest
        [ qcheck_pdsm_engines_agree; qcheck_pdsm_stability_check ] );
    ("semantics.icwa", icwa_unit);
    ("semantics.perf", perf_unit);
    ("semantics.oracle", oracle_alg_unit);
    ( "semantics.oracle.properties",
      [ QCheck_alcotest.to_alcotest qcheck_oracle_log_agrees ] );
    ( "semantics.reductions",
      List.map QCheck_alcotest.to_alcotest
        [
          qcheck_qbf_to_gcwa;
          qcheck_qbf_to_dsm;
          qcheck_sat_to_egcwa;
          qcheck_uminsat;
        ] );
    ( "semantics.tractable",
      QCheck_alcotest.to_alcotest qcheck_ddr_pws_poly_literal
      :: QCheck_alcotest.to_alcotest qcheck_ddr_poly_agrees
      :: (poly_no_oracle_unit @ ddr_poly_precondition_unit) );
    ("semantics.example31", example_31);
  ]
