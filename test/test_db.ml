open Ddb_logic
open Ddb_db

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Db basics & classification --- *)

let db_suite =
  [
    Alcotest.test_case "parse and classify" `Quick (fun () ->
        let db = Db.of_string "a | b. c :- a. :- a, b." in
        check_int "universe" 3 (Db.num_vars db);
        check "has integrity" true (Db.has_integrity db);
        check "no negation" true (not (Db.has_negation db));
        check "dddb" true (Db.is_dddb db);
        check "not positive ddb" false (Db.is_positive_ddb db));
    Alcotest.test_case "positive ddb" `Quick (fun () ->
        let db = Db.of_string "a | b. c :- a." in
        check "positive" true (Db.is_positive_ddb db);
        check "disjunctive" true (Db.has_disjunction db));
    Alcotest.test_case "normal program" `Quick (fun () ->
        check "normal" true
          (Db.is_normal_program (Db.of_string "a :- not b. b :- c."));
        check "not normal" false (Db.is_normal_program (Db.of_string "a | b.")));
    Alcotest.test_case "satisfied_by matches cnf" `Quick (fun () ->
        let db = Db.of_string "a | b :- c, not d. :- a, b." in
        let cnf = Db.to_cnf db in
        List.iter
          (fun m ->
            check "agree" (Db.satisfied_by m db)
              (List.for_all (fun c -> List.exists (Lit.holds m) c) cnf))
          (Interp.all (Db.num_vars db)));
    Alcotest.test_case "with_universe pads" `Quick (fun () ->
        let db = Db.of_string "a." in
        check_int "padded" 5 (Db.num_vars (Db.with_universe db 5)));
  ]

(* --- Models: the paper's Section 2 example --- *)

let models_suite =
  [
    Alcotest.test_case "paper example: M(a v b) and MM" `Quick (fun () ->
        (* DB = {a v b} over V = {a,b,c}: M(DB) = all six interpretations
           meeting {a,b}; MM = {a},{b}; MM(DB;{a};{c}) with Q={b} =
           {b},{b,c},{a},{a,c}. *)
        let vocab = Vocab.create () in
        let clauses = Parse.program vocab "a | b." in
        ignore (Vocab.intern vocab "c");
        let db = Db.make ~vocab clauses in
        check_int "universe 3" 3 (Db.num_vars db);
        let a = 0 and b = 1 and c = 2 in
        let i = Interp.of_list 3 in
        check "6 models" true
          (Gen.interp_list_equal (Models.all_models db)
             [ i [ b ]; i [ a ]; i [ a; b ]; i [ a; c ]; i [ b; c ]; i [ a; b; c ] ]);
        check "MM" true
          (Gen.interp_list_equal (Models.minimal_models db) [ i [ a ]; i [ b ] ]);
        let part = Partition.of_lists 3 ~p:[ a ] ~q:[ b ] ~z:[ c ] in
        check "MM(P;Z) reference" true
          (Gen.interp_list_equal
             (Models.brute_minimal_models ~part db)
             [ i [ b ]; i [ b; c ]; i [ a ]; i [ a; c ] ]));
    Alcotest.test_case "has_model / entails" `Quick (fun () ->
        let db = Db.of_string "a | b. :- a. :- b." in
        check "inconsistent" false (Models.has_model db);
        let db2 = Db.of_string "a | b. :- a." in
        check "consistent" true (Models.has_model db2);
        let vocab = Db.vocab db2 in
        check "entails b" true
          (Models.entails db2 (Parse.formula vocab "b"));
        check "not entails a" false
          (Models.entails db2 (Parse.formula vocab "a")));
    Alcotest.test_case "minimal_entails" `Quick (fun () ->
        let db = Db.of_string "a | b." in
        let vocab = Db.vocab db in
        let f = Parse.formula vocab "~a | ~b" in
        let ecwa = Gen.record (Gen.baseline ()) "ecwa" in
        check "min models reject a&b" true
          (ecwa.Ddb_core.Semantics.infer_formula db f);
        check "classical does not" false (Models.entails db f));
  ]

let qcheck_models_agree =
  QCheck.Test.make ~count:300 ~name:"SAT model sets match brute force"
    QCheck.(pair (int_bound 99999) (int_range 1 5))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      Gen.interp_list_equal (Models.all_models db) (Models.brute_models db)
      && Gen.interp_list_equal
           (Models.minimal_models db)
           (Models.brute_minimal_models db))

(* MM(DB;P;Z) ⊨ F is the ecwa record's formula question. *)
let qcheck_minimal_entails_agrees =
  QCheck.Test.make ~count:300
    ~name:"minimal_entails matches brute force (ecwa record at a partition)"
    QCheck.(pair (int_bound 99999) (int_range 1 5))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      let part = Gen.random_partition rand num_vars in
      let f = Gen.random_formula rand num_vars ~depth:2 in
      let reference =
        List.for_all
          (fun m -> Formula.eval m f)
          (Models.brute_minimal_models ~part db)
      in
      (Gen.record ~part (Gen.baseline ()) "ecwa").Ddb_core.Semantics.infer_formula
        db f
      = reference)

(* --- Stratification --- *)

let stratify_suite =
  [
    Alcotest.test_case "positive db is stratified" `Quick (fun () ->
        check "stratified" true (Stratify.is_stratified (Db.of_string "a | b. c :- a.")));
    Alcotest.test_case "negation across layers" `Quick (fun () ->
        let db = Db.of_string "b. a :- not b. c :- not a." in
        match Stratify.compute db with
        | None -> Alcotest.fail "should be stratified"
        | Some s ->
          let b = 0 and a = 1 and c = 2 in
          check "b below a" true (Stratify.level s b < Stratify.level s a);
          check "a below c" true (Stratify.level s a < Stratify.level s c));
    Alcotest.test_case "negative self-loop rejected" `Quick (fun () ->
        check "unstratified" false
          (Stratify.is_stratified (Db.of_string "a :- not a.")));
    Alcotest.test_case "negative cycle rejected" `Quick (fun () ->
        check "unstratified" false
          (Stratify.is_stratified
             (Db.of_string "a :- not b. b :- not a.")));
    Alcotest.test_case "positive cycle fine" `Quick (fun () ->
        check "stratified" true
          (Stratify.is_stratified (Db.of_string "a :- b. b :- a.")));
    Alcotest.test_case "head atoms share a stratum" `Quick (fun () ->
        let db = Db.of_string "a | b. c :- not a." in
        match Stratify.compute db with
        | None -> Alcotest.fail "stratified"
        | Some s ->
          check "a,b same" true (Stratify.level s 0 = Stratify.level s 1));
    Alcotest.test_case "computed stratification is valid" `Quick (fun () ->
        let db = Db.of_string "b. a :- not b. c | d :- a, not b." in
        match Stratify.compute db with
        | None -> Alcotest.fail "stratified"
        | Some s -> check "valid" true (Stratify.valid_stratification db (Stratify.strata s)));
  ]

let qcheck_stratified_generator_is_stratified =
  QCheck.Test.make ~count:200 ~name:"stratified generator yields stratified DBs"
    QCheck.(pair (int_bound 99999) (int_range 2 7))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.stratified_db rand ~num_vars ~num_clauses:(num_vars * 2) ~layers:3 in
      Stratify.is_stratified db)

let qcheck_computed_stratification_valid =
  QCheck.Test.make ~count:200 ~name:"computed stratification satisfies the conditions"
    QCheck.(pair (int_bound 99999) (int_range 2 6))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:num_vars in
      match Stratify.compute db with
      | None -> true (* rejection tested separately *)
      | Some s -> Stratify.valid_stratification db (Stratify.strata s))

(* --- Tp / DDR fixpoint --- *)

let tp_suite =
  [
    Alcotest.test_case "facts enter the state" `Quick (fun () ->
        let db = Db.of_string "a | b. c." in
        let occ = Tp.occurrence_closure db in
        check "a" true (Interp.mem occ 0);
        check "b" true (Interp.mem occ 1);
        check "c" true (Interp.mem occ 2));
    Alcotest.test_case "unsupported head not derived" `Quick (fun () ->
        let db = Db.of_string "a :- b." in
        let occ = Tp.occurrence_closure db in
        check "a out" false (Interp.mem occ 0);
        check "b out" false (Interp.mem occ 1));
    Alcotest.test_case "paper Example 3.1: c occurs" `Quick (fun () ->
        (* DB = {a v b; :- a, b; c :- a, b}: the hyperresolvent c v a v b
           puts c into T↑ω, so DDR misses ¬c. *)
        let db = Db.of_string "a | b. :- a, b. c :- a, b." in
        let occ = Tp.occurrence_closure db in
        check "c occurs" true (Interp.mem occ 2));
    Alcotest.test_case "explicit fixpoint contents" `Quick (fun () ->
        let db = Db.of_string "a | b. c :- a, b." in
        let state = Tp.fixpoint db in
        let mem l = Interp.Set.mem (Interp.of_list (Db.num_vars db) l) state in
        check "a v b" true (mem [ 0; 1 ]);
        check "c v a v b" true (mem [ 0; 1; 2 ]);
        check "not just c" false (mem [ 2 ]));
    Alcotest.test_case "subsumption-minimal state" `Quick (fun () ->
        let db = Db.of_string "a. a | b." in
        let min_state = Tp.minimal_state db in
        check_int "one disjunction" 1 (Interp.Set.cardinal min_state);
        check "it is {a}" true
          (Interp.Set.mem (Interp.of_list (Db.num_vars db) [ 0 ]) min_state));
    Alcotest.test_case "rejects negation" `Quick (fun () ->
        check "invalid" true
          (try
             ignore (Tp.occurrence_closure (Db.of_string "a :- not b."));
             false
           with Invalid_argument _ -> true));
  ]

let qcheck_occurrence_closure_matches_fixpoint =
  QCheck.Test.make ~count:300
    ~name:"occurrence closure = atoms of the explicit T fixpoint"
    QCheck.(pair (int_bound 99999) (int_range 1 5))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dddb_with_integrity rand ~num_vars ~num_clauses:(num_vars * 2) in
      Interp.equal (Tp.occurrence_closure db) (Tp.occurring_in_fixpoint db))

(* --- Possible models --- *)

let possible_suite =
  [
    Alcotest.test_case "a v b has three possible models" `Quick (fun () ->
        let db = Db.of_string "a | b." in
        let i = Interp.of_list (Db.num_vars db) in
        check "pms" true
          (Gen.interp_list_equal
             (Possible.brute_possible_models db)
             [ i [ 0 ]; i [ 1 ]; i [ 0; 1 ] ]));
    Alcotest.test_case "unsupported atoms never possible" `Quick (fun () ->
        let db = Db.of_string "a :- b." in
        check "empty only" true
          (Gen.interp_list_equal
             (Possible.brute_possible_models db)
             [ Interp.empty (Db.num_vars db) ]));
    Alcotest.test_case "integrity prunes splits" `Quick (fun () ->
        let db = Db.of_string "a | b. :- a." in
        let i = Interp.of_list (Db.num_vars db) in
        check "only {b}" true
          (Gen.interp_list_equal (Possible.brute_possible_models db) [ i [ 1 ] ]));
    Alcotest.test_case "is_possible_model agrees on example" `Quick (fun () ->
        let db = Db.of_string "a | b. c :- a." in
        let n = Db.num_vars db in
        let reference = Possible.brute_possible_models db in
        List.iter
          (fun m ->
            check
              (Interp.to_string m)
              (List.exists (Interp.equal m) reference)
              (Possible.is_possible_model db m))
          (Interp.all n));
  ]

let qcheck_possible_check_matches_splits =
  QCheck.Test.make ~count:300
    ~name:"polynomial possible-model check = split-enumeration reference"
    QCheck.(pair (int_bound 99999) (int_range 1 5))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dddb_with_integrity rand ~num_vars ~num_clauses:num_vars in
      let reference = Possible.brute_possible_models db in
      List.for_all
        (fun m ->
          Possible.is_possible_model db m
          = List.exists (Interp.equal m) reference)
        (Interp.all num_vars))

let qcheck_possible_models_enumeration =
  QCheck.Test.make ~count:200 ~name:"possible_models = brute splits"
    QCheck.(pair (int_bound 99999) (int_range 1 5))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dddb_with_integrity rand ~num_vars ~num_clauses:num_vars in
      Gen.interp_list_equal
        (Possible.possible_models db)
        (Possible.brute_possible_models db))

(* --- Priority / perfect models --- *)

let priority_suite =
  [
    Alcotest.test_case "negation raises priority" `Quick (fun () ->
        (* b :- not a: head b gets lower priority than a, so b < a. *)
        let db = Db.of_string "b :- not a." in
        let t = Priority.compute db in
        let b = 0 and a = 1 in
        check "b < a" true (Priority.lt t b a);
        check "not a < b" false (Priority.lt t a b));
    Alcotest.test_case "perfect model of b :- not a" `Quick (fun () ->
        let db = Db.of_string "b :- not a." in
        let i = Interp.of_list (Db.num_vars db) in
        check "perfect set" true
          (Gen.interp_list_equal (Priority.brute_perfect_models db) [ i [ 0 ] ]);
        check "is_perfect {b}" true (Priority.is_perfect db (i [ 0 ]));
        check "{a} not perfect" false (Priority.is_perfect db (i [ 1 ])));
    Alcotest.test_case "positive db: perfect = minimal" `Quick (fun () ->
        let db = Db.of_string "a | b. c :- a." in
        check "sets equal" true
          (Gen.interp_list_equal
             (Priority.brute_perfect_models db)
             (Models.brute_minimal_models db)));
    Alcotest.test_case "unstratified may lack perfect models" `Quick (fun () ->
        (* The classic even negative loop: a :- not b. b :- not a.
           Priorities a < b and b < a are both strict, so {a} and {b} are
           each preferable to the other and {a,b} has proper submodels:
           no perfect model exists. *)
        let db = Db.of_string "a :- not b. b :- not a." in
        check "none" true (Priority.brute_perfect_models db = []));
  ]

(* Reference for the priority closure: from each atom, a breadth-first
   search over (atom, strict step seen) states along the clause-derived
   edges; x < y iff (y, true) is reached. *)
let reference_lt db =
  let n = Db.num_vars db in
  let edges = Array.make n [] in
  let edge x y strict = edges.(x) <- (y, strict) :: edges.(x) in
  List.iter
    (fun c ->
      let head = Clause.head c in
      List.iter
        (fun a ->
          List.iter (fun b -> edge a b false) (Clause.body_pos c);
          List.iter (fun b -> edge a b true) (Clause.body_neg c);
          List.iter (fun b -> edge a b false) head)
        head)
    (Db.clauses db);
  Array.init n (fun x ->
      let seen = Hashtbl.create 16 in
      let queue = Queue.create () in
      let push state =
        if not (Hashtbl.mem seen state) then begin
          Hashtbl.add seen state ();
          Queue.add state queue
        end
      in
      push (x, false);
      while not (Queue.is_empty queue) do
        let y, s = Queue.pop queue in
        List.iter (fun (z, strict) -> push (z, s || strict)) edges.(y)
      done;
      fun y -> Hashtbl.mem seen (y, true))

let qcheck_priority_matches_bfs =
  QCheck.Test.make ~count:(Gen.qcheck_count 300)
    ~name:"Priority.lt = breadth-first reference"
    QCheck.(pair (int_bound 99999) (int_range 1 12))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      let t = Priority.compute db and reference = reference_lt db in
      List.for_all
        (fun x ->
          List.for_all
            (fun y -> Priority.lt t x y = reference.(x) y)
            (List.init num_vars Fun.id))
        (List.init num_vars Fun.id))

let qcheck_perfect_sat_check_matches_brute =
  QCheck.Test.make ~count:300 ~name:"SAT perfectness check = brute reference"
    QCheck.(pair (int_bound 99999) (int_range 1 5))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      let reference = Priority.brute_perfect_models db in
      List.for_all
        (fun m ->
          (not (Db.satisfied_by m db))
          || Priority.is_perfect db m = List.exists (Interp.equal m) reference)
        (Interp.all num_vars))

let qcheck_perfect_enumeration =
  QCheck.Test.make ~count:200 ~name:"perfect_models = brute reference"
    QCheck.(pair (int_bound 99999) (int_range 1 5))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      Gen.interp_list_equal (Priority.perfect_models db)
        (Priority.brute_perfect_models db))

(* PERF's refinement.  For every model N of a random DNDB and every
   interpretation M, the clauses a failed perfectness check adds for N
   (auxiliaries free) admit M iff N is not preferable to M, by a
   brute-force preferability over the breadth-first [reference_lt].  The
   refined searches themselves are checked against the brute perfect
   models: a search finds a perfect model iff one exists, and the harvest
   collects exactly the literals true in some perfect model.  [refined]
   counts the databases on which a search learned a refutation. *)
let refined = ref 0

let qcheck_refinement_encoding =
  QCheck.Test.make ~count:(Gen.qcheck_count 300)
    ~name:"refinement clauses admit M iff N is not preferable to M"
    QCheck.(pair (int_bound 99999) (int_range 1 6))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      let t = Priority.compute db and lt = reference_lt db in
      let preferable n m =
        (not (Interp.equal n m))
        && Interp.for_all
             (fun x -> Interp.exists lt.(x) (Interp.diff m n))
             (Interp.diff n m)
      in
      let models = Models.brute_models db and all = Interp.all num_vars in
      let encoding_ok =
        List.for_all
          (fun n ->
            let solver = Ddb_sat.Solver.create ~num_vars () in
            Ddb_sat.Minimal.add_dnf solver (Priority.not_preferable t n);
            List.for_all
              (fun m ->
                let admits =
                  Ddb_sat.Solver.solve
                    ~assumptions:
                      (List.init num_vars (fun x ->
                           if Interp.mem m x then Lit.Pos x else Lit.Neg x))
                    solver
                  = Ddb_sat.Solver.Sat
                in
                admits = not (preferable n m))
              all)
          models
      in
      let refuted = ref false in
      let check =
        let perfectness = Priority.perfectness db in
        fun m ->
          let v = perfectness m in
          (match v with Ddb_sat.Minimal.Refute _ -> refuted := true | _ -> ());
          v
      in
      let theory = Db.theory db and part = Partition.minimize_all num_vars in
      let perfect = Priority.brute_perfect_models db in
      let found = Ddb_sat.Minimal.find_minimal_such_that ~check theory part in
      let full = Interp.full num_vars in
      let t_got, f_got =
        Ddb_sat.Minimal.harvest ~check theory part ~pos:full ~neg:full
      in
      let union f =
        List.fold_left
          (fun s m -> Interp.union s (f m))
          (Interp.empty num_vars) perfect
      in
      if !refuted then incr refined;
      encoding_ok
      && (match found with
         | None -> perfect = []
         | Some m -> List.exists (Interp.equal m) perfect)
      && Interp.equal t_got (union Fun.id)
      && Interp.equal f_got (union (Interp.diff full)))

let refinement_suite =
  [
    Alcotest.test_case "encoding law; some search learned a refutation" `Quick
      (fun () ->
        refined := 0;
        QCheck.Test.check_exn qcheck_refinement_encoding;
        if !refined = 0 then
          Alcotest.fail "no search learned a refutation: the law tested nothing");
  ]

(* DSM's listing: the minimal models that pass the stability check (a
   reduct and one SAT call) are the stable models by definition. *)
let qcheck_stable_enumeration =
  QCheck.Test.make ~count:200 ~name:"stable_models = brute reference"
    QCheck.(pair (int_bound 99999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      Gen.interp_list_equal (Ddb_core.Dsm.stable_models db)
        (Ddb_core.Dsm.reference_models db))

(* --- Reduct --- *)

let reduct_suite =
  [
    Alcotest.test_case "GL reduct drops and erases" `Quick (fun () ->
        let db = Db.of_string "a :- not b. c :- not a." in
        let m = Interp.of_list (Db.num_vars db) [ 0 ] (* {a} *) in
        let r = Reduct.gl db m in
        check "positive" true (not (Db.has_negation r));
        check_int "one clause survives" 1 (Db.size r);
        (* a :- not b survives (b not in m) as fact a; c :- not a dropped *)
        check "a derivable" true (Db.satisfied_by (Interp.of_list 3 [ 0 ]) r);
        check "fact a forces a" false (Db.satisfied_by (Interp.empty 3) r));
    Alcotest.test_case "reduct of positive db is itself" `Quick (fun () ->
        let db = Db.of_string "a | b. c :- a." in
        let m = Interp.of_list (Db.num_vars db) [ 0 ] in
        check "same clauses" true
          (List.for_all2 Clause.equal (Db.clauses db) (Db.clauses (Reduct.gl db m))));
  ]

let suites =
  [
    ("db.basics", db_suite);
    ("db.models", models_suite);
    ( "db.models.properties",
      List.map QCheck_alcotest.to_alcotest
        [ qcheck_models_agree; qcheck_minimal_entails_agrees ] );
    ("db.stratify", stratify_suite);
    ( "db.stratify.properties",
      List.map QCheck_alcotest.to_alcotest
        [
          qcheck_stratified_generator_is_stratified;
          qcheck_computed_stratification_valid;
        ] );
    ("db.tp", tp_suite);
    ( "db.tp.properties",
      [ QCheck_alcotest.to_alcotest qcheck_occurrence_closure_matches_fixpoint ] );
    ("db.possible", possible_suite);
    ( "db.possible.properties",
      List.map QCheck_alcotest.to_alcotest
        [ qcheck_possible_check_matches_splits; qcheck_possible_models_enumeration ] );
    ("db.priority", priority_suite);
    ( "db.priority.properties",
      List.map QCheck_alcotest.to_alcotest
        [
          qcheck_priority_matches_bfs;
          qcheck_perfect_sat_check_matches_brute;
          qcheck_perfect_enumeration;
        ] );
    ("db.priority.refinement", refinement_suite);
    ("db.reduct", reduct_suite);
    ( "db.reduct.properties",
      [ QCheck_alcotest.to_alcotest qcheck_stable_enumeration ] );
  ]
