open Ddb_logic
open Ddb_db
open Ddb_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Direct questions run on the paper's baseline configuration. *)
let eng = Gen.baseline ()

(* --- Vocab --- *)

let vocab_suite =
  [
    Alcotest.test_case "intern is idempotent" `Quick (fun () ->
        let v = Vocab.create () in
        let a = Vocab.intern v "a" in
        check_int "same id" a (Vocab.intern v "a");
        check_int "size" 1 (Vocab.size v));
    Alcotest.test_case "fresh avoids collisions" `Quick (fun () ->
        let v = Vocab.create () in
        let _ = Vocab.intern v "w" in
        let w0 = Vocab.fresh v "w" in
        check "new id" true (Vocab.name v w0 <> "w");
        let w1 = Vocab.fresh v "w" in
        check "distinct" true (w0 <> w1));
    Alcotest.test_case "copy isolates" `Quick (fun () ->
        let v = Vocab.create () in
        let _ = Vocab.intern v "a" in
        let v' = Vocab.copy v in
        let _ = Vocab.intern v' "b" in
        check_int "original unchanged" 1 (Vocab.size v);
        check_int "copy grew" 2 (Vocab.size v'));
    Alcotest.test_case "growth past initial capacity" `Quick (fun () ->
        let v = Vocab.create ~capacity:2 () in
        for i = 0 to 99 do
          ignore (Vocab.intern v (string_of_int i))
        done;
        check_int "size" 100 (Vocab.size v);
        check "names stable" true (Vocab.name v 37 = "37"));
  ]

(* --- CWA classics --- *)

let cwa_suite =
  [
    Alcotest.test_case "CWA inconsistent on a v b" `Quick (fun () ->
        let db = Db.of_string "a | b." in
        check "no model" false (Registry.has_model_in eng ~sem:"cwa" db);
        (* ... while every disjunctive repair is consistent *)
        check "gcwa ok" true (Registry.has_model_in eng ~sem:"gcwa" db);
        check "egcwa ok" true (Registry.has_model_in eng ~sem:"egcwa" db));
    Alcotest.test_case "CWA on Horn db = least model" `Quick (fun () ->
        let db = Db.of_string "a. b :- a. c :- d." in
        check "consistent" true (Registry.has_model_in eng ~sem:"cwa" db);
        let cwa l = Registry.infer_literal_in eng ~sem:"cwa" db l in
        check "entails b" true (cwa (Lit.Pos 1));
        check "entails ~c" true (cwa (Lit.Neg 2));
        check "entails ~d" true (cwa (Lit.Neg 3)));
    Alcotest.test_case "GCWA = CWA on Horn databases" `Quick (fun () ->
        let db = Db.of_string "a. b :- a. c :- d." in
        List.iter
          (fun x ->
            check "agree pos"
              (Registry.infer_literal_in eng ~sem:"cwa" db (Lit.Pos x))
              (Registry.infer_literal_in eng ~sem:"gcwa" db (Lit.Pos x));
            check "agree neg"
              (Registry.infer_literal_in eng ~sem:"cwa" db (Lit.Neg x))
              (Registry.infer_literal_in eng ~sem:"gcwa" db (Lit.Neg x)))
          [ 0; 1; 2; 3 ]);
  ]

(* --- the closed-world hierarchy: DDR-negations ⊆ GCWA-negations ⊆ ...  --- *)

let qcheck_negation_hierarchy =
  QCheck.Test.make ~count:300
    ~name:"DDR negates a subset of what GCWA negates (WGCWA is weaker)"
    QCheck.(pair (int_bound 999999) (int_range 1 5))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.positive_db rand ~num_vars ~num_clauses:(num_vars * 2) in
      let gcwa_negates x =
        Registry.infer_literal_in eng ~sem:"gcwa" db (Lit.Neg x)
      in
      Interp.for_all gcwa_negates (Ddr.negated_atoms db))

let qcheck_gcwa_extends_classical =
  QCheck.Test.make ~count:300
    ~name:"classical entailment implies GCWA entailment"
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.positive_db rand ~num_vars ~num_clauses:(num_vars * 2) in
      let f = Gen.random_formula rand num_vars ~depth:2 in
      (not (Models.entails db f))
      || Registry.infer_formula_in eng ~sem:"gcwa" db f)

let qcheck_gcwa_within_egcwa =
  QCheck.Test.make ~count:300
    ~name:"GCWA entailment implies EGCWA entailment (MM ⊆ GCWA models)"
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      let f = Gen.random_formula rand num_vars ~depth:2 in
      (not (Registry.infer_formula_in eng ~sem:"gcwa" db f))
      || Registry.infer_formula_in eng ~sem:"egcwa" db f)

(* Minimal models are possible models (no integrity clauses). *)
let qcheck_mm_subset_pws =
  QCheck.Test.make ~count:300
    ~name:"minimal models are possible models (no integrity clauses)"
    QCheck.(pair (int_bound 999999) (int_range 1 5))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.positive_db rand ~num_vars ~num_clauses:(num_vars * 2) in
      List.for_all
        (fun m -> Possible.is_possible_model db m)
        (Models.brute_minimal_models db))

(* Stable models are minimal models. *)
let qcheck_dsm_subset_mm =
  QCheck.Test.make ~count:300 ~name:"stable models are minimal models"
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      let mm = Models.brute_minimal_models db in
      List.for_all
        (fun m -> List.exists (Interp.equal m) mm)
        (Dsm.reference_models db))

(* Perfect models of stratified databases: existence and uniqueness for
   stratified *normal* (non-disjunctive) programs. *)
let qcheck_stratified_normal_unique_perfect =
  QCheck.Test.make ~count:200
    ~name:"stratified normal programs have exactly one perfect model"
    QCheck.(pair (int_bound 999999) (int_range 2 5))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db =
        Gen.stratified_db rand ~num_vars ~num_clauses:(num_vars * 2) ~layers:2
      in
      (* restrict to single-atom heads *)
      let clauses =
        List.map
          (fun c ->
            match Clause.head c with
            | [] | [ _ ] -> c
            | h :: _ ->
              Clause.make ~head:[ h ] ~pos:(Clause.body_pos c)
                ~neg:(Clause.body_neg c))
          (Db.clauses db)
      in
      let db = Db.with_universe (Db.make ~vocab:(Db.vocab db) clauses) num_vars in
      match Stratify.compute db with
      | None -> true
      | Some _ -> List.length (Priority.brute_perfect_models db) = 1)

(* Minker's completeness theorem for positive DDBs: a positive clause
   C = a1 v ... v ak is classically entailed iff some derivable disjunction
   in the subsumption-minimal T↑ω state is contained in C. *)
let qcheck_minker_completeness =
  QCheck.Test.make ~count:250
    ~name:"Minker: DB |= positive clause iff subsumed by T↑ω minimal state"
    QCheck.(pair (int_bound 999999) (int_range 1 5))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.positive_db rand ~num_vars ~num_clauses:(num_vars * 2) in
      let state = Ddb_db.Tp.minimal_state db in
      let clause_atoms =
        List.sort_uniq Int.compare
          (List.init
             (1 + Random.State.int rand 3)
             (fun _ -> Gen.atom rand num_vars))
      in
      let c = Interp.of_list num_vars clause_atoms in
      let entailed =
        Models.entails db
          (Formula.big_or (List.map Formula.atom clause_atoms))
      in
      let derivable =
        Interp.Set.exists (fun c' -> Interp.subset c' c) state
      in
      entailed = derivable)

(* The entailment chain on positive DDBs without integrity clauses:
   DDR models ⊇ PWS models ⊇ minimal models, hence
   DDR ⊨ F ⟹ PWS ⊨ F ⟹ EGCWA ⊨ F. *)
let qcheck_entailment_chain =
  QCheck.Test.make ~count:250
    ~name:"DDR ⊨ F ⟹ PWS ⊨ F ⟹ EGCWA ⊨ F (positive DDBs)"
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.positive_db rand ~num_vars ~num_clauses:(num_vars * 2) in
      let f = Gen.random_formula rand num_vars ~depth:2 in
      let ddr = Registry.infer_formula_in eng ~sem:"ddr" db f in
      let pws = Registry.infer_formula_in eng ~sem:"pws" db f in
      let egcwa = Registry.infer_formula_in eng ~sem:"egcwa" db f in
      ((not ddr) || pws) && ((not pws) || egcwa))

(* --- queries mentioning fresh atoms --- *)

let fresh_atom_suite =
  [
    Alcotest.test_case "closed-world semantics falsify fresh atoms" `Quick
      (fun () ->
        let db = Db.of_string "a | b." in
        let vocab = Db.vocab db in
        let fresh = Formula.Not (Formula.Atom (Vocab.intern vocab "zzz")) in
        check "gcwa" true (Registry.infer_formula_in eng ~sem:"gcwa" db fresh);
        check "egcwa" true (Registry.infer_formula_in eng ~sem:"egcwa" db fresh);
        check "dsm" true (Registry.infer_formula_in eng ~sem:"dsm" db fresh);
        check "perf" true (Registry.infer_formula_in eng ~sem:"perf" db fresh);
        check "ddr" true (Registry.infer_formula_in eng ~sem:"ddr" db fresh);
        check "pws" true (Registry.infer_formula_in eng ~sem:"pws" db fresh));
    Alcotest.test_case "classical entailment does not" `Quick (fun () ->
        let db = Db.of_string "a | b." in
        let vocab = Db.vocab db in
        let fresh = Formula.Not (Formula.Atom (Vocab.intern vocab "zzz")) in
        check "classical" false (Models.entails db fresh));
    Alcotest.test_case "fresh literal via infer_literal" `Quick (fun () ->
        let db = Db.of_string "a." in
        let gcwa = Registry.infer_literal_in eng ~sem:"gcwa" db in
        check "neg fresh" true (gcwa (Lit.Neg 7));
        check "pos fresh" false (gcwa (Lit.Pos 7)));
  ]

(* --- inconsistent databases entail everything --- *)

let inconsistent_suite =
  [
    Alcotest.test_case "inconsistent DB: everything follows" `Quick (fun () ->
        let db = Db.of_string "a. :- a." in
        check "no classical model" false (Models.has_model db);
        let b = Formula.Atom 1 in
        check "gcwa entails b" true (Registry.infer_formula_in eng ~sem:"gcwa" db b);
        check "egcwa entails b" true
          (Registry.infer_formula_in eng ~sem:"egcwa" db b);
        check "egcwa no model" false (Registry.has_model_in eng ~sem:"egcwa" db);
        check "dsm no model" false (Registry.has_model_in eng ~sem:"dsm" db);
        check "pdsm no model" false (Registry.has_model_in eng ~sem:"pdsm" db));
  ]

(* --- UMINSAT corner cases --- *)

let uminsat_suite =
  [
    Alcotest.test_case "unique vs non-unique vs none" `Quick (fun () ->
        check "horn unique" true
          (Reductions.has_unique_minimal_model (Db.of_string "a. b :- a."));
        check "disjunction not unique" false
          (Reductions.has_unique_minimal_model (Db.of_string "a | b."));
        check "inconsistent: none" false
          (Reductions.has_unique_minimal_model (Db.of_string "a. :- a.")));
  ]

(* --- registry --- *)

let registry_suite =
  [
    Alcotest.test_case "find by name" `Quick (fun () ->
        check "gcwa" true
          (match Registry.find "gcwa" with
          | Some s -> s.Semantics.name = "gcwa"
          | None -> false);
        check "unknown" true (Registry.find "nope" = None));
    Alcotest.test_case "each name finds its own record, in registry order"
      `Quick (fun () ->
        let expected =
          [ "cwa"; "gcwa"; "ddr"; "pws"; "egcwa"; "ccwa"; "ecwa"; "circ";
            "icwa"; "perf"; "dsm"; "pdsm" ]
        in
        Alcotest.(check (list string)) "names order" expected Registry.names;
        Alcotest.(check (list string)) "all order" expected
          (List.map (fun (s : Semantics.t) -> s.Semantics.name) Registry.all);
        List.iter2
          (fun name (s : Semantics.t) ->
            (* the record itself, not a copy *)
            check name true
              (match Registry.find name with Some r -> r == s | None -> false))
          Registry.names Registry.all;
        check "unknown" true (Registry.find "nope" = None);
        (* at a given partition only the four parametric records exist *)
        let part = Partition.minimize_all 2 in
        Alcotest.(check (list string)) "find ~part"
          [ "ccwa"; "ecwa"; "circ"; "icwa" ]
          (List.filter
             (fun name -> Option.is_some (Registry.find ~part name))
             ("nope" :: Registry.names)));
    Alcotest.test_case "all names distinct" `Quick (fun () ->
        let names = Registry.names in
        check_int "no dups" (List.length names)
          (List.length (List.sort_uniq String.compare names)));
    Alcotest.test_case "claimed table covers all ten semantics × 3 × 2" `Quick
      (fun () ->
        check_int "60 entries" 60 (List.length Classes.claimed);
        List.iter
          (fun sem ->
            List.iter
              (fun setting ->
                List.iter
                  (fun task ->
                    check
                      (Printf.sprintf "%s present" sem)
                      true
                      (Classes.lookup ~semantics:sem ~setting ~task <> None))
                  [ Classes.Literal; Classes.Formula; Classes.Exists ])
              [ Classes.Table1; Classes.Table2 ])
          [ "gcwa"; "ddr"; "pws"; "egcwa"; "ccwa"; "ecwa"; "icwa"; "perf";
            "dsm"; "pdsm" ]);
  ]

(* --- smaller API gaps --- *)

let qcheck_minimal_state_is_antichain =
  QCheck.Test.make ~count:200
    ~name:"Tp.minimal_state = subsumption-minimal fixpoint"
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.positive_db rand ~num_vars ~num_clauses:(num_vars * 2) in
      let full = Ddb_db.Tp.fixpoint db in
      let min_state = Ddb_db.Tp.minimal_state db in
      (* antichain *)
      Interp.Set.for_all
        (fun c ->
          not
            (Interp.Set.exists
               (fun c' -> Interp.proper_subset c' c)
               min_state))
        min_state
      (* every fixpoint element is subsumed by a minimal one *)
      && Interp.Set.for_all
           (fun c ->
             Interp.Set.exists (fun c' -> Interp.subset c' c) min_state)
           full)

let qcheck_minimal_models_per_section =
  QCheck.Test.make ~count:200
    ~name:"minimal_models ?part: one minimal model per (P,Q)-section"
    QCheck.(pair (int_bound 999999) (int_range 1 4))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(num_vars * 2) in
      let part = Gen.random_partition rand num_vars in
      let reps = Models.minimal_models ~part db in
      let reference = Models.brute_minimal_models ~part db in
      (* every representative is minimal *)
      List.for_all (fun m -> List.exists (Interp.equal m) reference) reps
      (* sections are distinct *)
      && List.for_all
           (fun m ->
             List.length
               (List.filter (fun m' -> Partition.same_section part m m') reps)
             = 1)
           reps
      (* every minimal section is represented *)
      && List.for_all
           (fun m -> List.exists (Partition.same_section part m) reps)
           reference)

let split_suite =
  [
    Alcotest.test_case "Stratify.split groups clauses by head stratum" `Quick
      (fun () ->
        let db = Db.of_string "b. a :- not b. c :- a. :- b, c." in
        match Ddb_db.Stratify.compute db with
        | None -> Alcotest.fail "stratified"
        | Some strat ->
          let groups = Ddb_db.Stratify.split db strat in
          check_int "covers all clauses" (Db.size db)
            (List.fold_left (fun acc g -> acc + List.length g) 0 groups);
          (* the fact b. sits in the first stratum *)
          (match groups with
          | first :: _ ->
            check "fact first" true
              (List.exists (fun c -> Clause.head c = [ 0 ]) first)
          | [] -> Alcotest.fail "no strata"));
    Alcotest.test_case
      "Stratify.split: integrity clause waits for its negative atoms" `Quick
      (fun () ->
        (* a=0 in S0, b=1 in S1 (via not a), c=2 in S2 (via not b).  The
           integrity clause [:- a, not b] mentions nothing above S1, but
           ¬b is only settled once S1 is *closed* — it must land in S2.
           (It used to land in S1, the max level mentioned, where a later
           clause of S1 could still derive b.) *)
        let db = Db.of_string "a. b :- not a. c :- not b. :- a, not b." in
        match Ddb_db.Stratify.compute db with
        | None -> Alcotest.fail "stratified"
        | Some strat ->
          check_int "three strata" 3 (Ddb_db.Stratify.num_strata strat);
          let groups = Ddb_db.Stratify.split db strat in
          check_int "covers all clauses" (Db.size db)
            (List.fold_left (fun acc g -> acc + List.length g) 0 groups);
          let level_of_integrity =
            List.concat
              (List.mapi
                 (fun i g ->
                   List.filter_map
                     (fun c -> if Clause.head c = [] then Some i else None)
                     g)
                 groups)
          in
          check "integrity in S2" true (level_of_integrity = [ 2 ]));
    Alcotest.test_case "blocking clause excludes exactly supersets" `Quick
      (fun () ->
        let m = Interp.of_list 3 [ 0; 2 ] in
        let clause = Ddb_sat.Enum.blocking_clause ~universe:3 m in
        List.iter
          (fun candidate ->
            let blocked = not (List.exists (Lit.holds candidate) clause) in
            check "blocks iff equal" (Interp.equal candidate m) blocked)
          (Interp.all 3));
    Alcotest.test_case "semantics registry consistency" `Quick (fun () ->
        (* every record finds the one intended model of "a." as the
           witness of a *)
        List.iter
          (fun (s : Semantics.t) ->
            check s.Semantics.name true
              (s.Semantics.witness eng (Db.of_string "a.") (Formula.Atom 0)
              <> None))
          Registry.all);
  ]

let suites =
  [
    ("extra.vocab", vocab_suite);
    ("extra.cwa", cwa_suite);
    ( "extra.hierarchy",
      List.map QCheck_alcotest.to_alcotest
        [
          qcheck_negation_hierarchy;
          qcheck_gcwa_extends_classical;
          qcheck_gcwa_within_egcwa;
          qcheck_mm_subset_pws;
          qcheck_dsm_subset_mm;
          qcheck_stratified_normal_unique_perfect;
          qcheck_minker_completeness;
          qcheck_entailment_chain;
        ] );
    ("extra.fresh_atoms", fresh_atom_suite);
    ("extra.inconsistent", inconsistent_suite);
    ("extra.uminsat", uminsat_suite);
    ("extra.registry", registry_suite);
    ( "extra.api",
      split_suite
      @ List.map QCheck_alcotest.to_alcotest
          [ qcheck_minimal_state_is_antichain; qcheck_minimal_models_per_section ] );
  ]
