open Ddb_logic
open Ddb_sat

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Deterministic pseudo-random CNF generator for cross-checks. *)
let gen_cnf rand ~num_vars ~num_clauses ~width =
  List.init num_clauses (fun _ ->
      let len = 1 + Random.State.int rand width in
      List.init len (fun _ ->
          let v = Random.State.int rand num_vars in
          if Random.State.bool rand then Lit.Pos v else Lit.Neg v))

let solver_suite =
  [
    Alcotest.test_case "trivial sat" `Quick (fun () ->
        let s = Solver.of_clauses ~num_vars:2 [ [ Lit.Pos 0 ]; [ Lit.Neg 1 ] ] in
        check "sat" true (Solver.solve s = Solver.Sat);
        let m = Solver.model s in
        check "model" true (Interp.mem m 0 && not (Interp.mem m 1)));
    Alcotest.test_case "trivial unsat" `Quick (fun () ->
        let s = Solver.of_clauses ~num_vars:1 [ [ Lit.Pos 0 ]; [ Lit.Neg 0 ] ] in
        check "unsat" true (Solver.solve s = Solver.Unsat);
        check "root" true (Solver.is_root_unsat s));
    Alcotest.test_case "empty clause" `Quick (fun () ->
        let s = Solver.of_clauses ~num_vars:1 [ [] ] in
        check "unsat" true (Solver.solve s = Solver.Unsat));
    Alcotest.test_case "no clauses" `Quick (fun () ->
        let s = Solver.of_clauses ~num_vars:3 [] in
        check "sat" true (Solver.solve s = Solver.Sat));
    Alcotest.test_case "tautology dropped" `Quick (fun () ->
        let s =
          Solver.of_clauses ~num_vars:1 [ [ Lit.Pos 0; Lit.Neg 0 ]; [ Lit.Neg 0 ] ]
        in
        check "sat" true (Solver.solve s = Solver.Sat);
        check "x false" false (Interp.mem (Solver.model s) 0));
    Alcotest.test_case "pigeonhole 4-into-3 unsat" `Quick (fun () ->
        (* p(i,j): pigeon i in hole j; i<4, j<3; var = 3*i + j *)
        let v i j = (3 * i) + j in
        let each_pigeon =
          List.init 4 (fun i -> List.init 3 (fun j -> Lit.Pos (v i j)))
        in
        let no_collision =
          List.concat_map
            (fun j ->
              List.concat_map
                (fun i ->
                  List.filter_map
                    (fun i' ->
                      if i' > i then Some [ Lit.Neg (v i j); Lit.Neg (v i' j) ]
                      else None)
                    (List.init 4 Fun.id))
                (List.init 4 Fun.id))
            (List.init 3 Fun.id)
        in
        let s = Solver.of_clauses ~num_vars:12 (each_pigeon @ no_collision) in
        check "unsat" true (Solver.solve s = Solver.Unsat));
    Alcotest.test_case "assumptions" `Quick (fun () ->
        let s =
          Solver.of_clauses ~num_vars:3
            [ [ Lit.Neg 0; Lit.Pos 1 ]; [ Lit.Neg 1; Lit.Pos 2 ] ]
        in
        check "sat with a" true
          (Solver.solve ~assumptions:[ Lit.Pos 0 ] s = Solver.Sat);
        check "chained" true (Interp.mem (Solver.model s) 2);
        check "conflicting assumptions" true
          (Solver.solve ~assumptions:[ Lit.Pos 0; Lit.Neg 2 ] s = Solver.Unsat);
        (* Solver still usable, instance still satisfiable. *)
        check "recover" true (Solver.solve s = Solver.Sat));
    Alcotest.test_case "incremental clause addition" `Quick (fun () ->
        let s = Solver.of_clauses ~num_vars:2 [ [ Lit.Pos 0; Lit.Pos 1 ] ] in
        check "sat" true (Solver.solve s = Solver.Sat);
        Solver.add_clause s [ Lit.Neg 0 ];
        check "still sat" true (Solver.solve s = Solver.Sat);
        check "forced 1" true (Interp.mem (Solver.model s) 1);
        Solver.add_clause s [ Lit.Neg 1 ];
        check "now unsat" true (Solver.solve s = Solver.Unsat));
    Alcotest.test_case "model projection" `Quick (fun () ->
        let s = Solver.of_clauses ~num_vars:5 [ [ Lit.Pos 4 ] ] in
        check "sat" true (Solver.solve s = Solver.Sat);
        check_int "universe" 2 (Interp.universe_size (Solver.model ~universe:2 s)));
  ]

(* Property: CDCL agrees with the truth-table engine on satisfiability, and
   when Sat the returned model really satisfies the clauses. *)
let qcheck_solver_agrees =
  QCheck.Test.make ~count:500 ~name:"cdcl agrees with truth table"
    QCheck.(triple (int_bound 9999) (int_range 1 6) (int_range 0 20))
    (fun (seed, num_vars, num_clauses) ->
      let rand = Random.State.make [| seed |] in
      let cnf = gen_cnf rand ~num_vars ~num_clauses ~width:3 in
      let expected = Brute.is_sat ~num_vars cnf in
      let solver = Solver.of_clauses ~num_vars cnf in
      let got = Solver.solve solver = Solver.Sat in
      if got <> expected then false
      else if got then Brute.satisfies (Solver.model solver) cnf
      else true)

let qcheck_assumptions_sound =
  QCheck.Test.make ~count:300 ~name:"assumptions = added units"
    QCheck.(triple (int_bound 9999) (int_range 2 6) (int_range 0 14))
    (fun (seed, num_vars, num_clauses) ->
      let rand = Random.State.make [| seed |] in
      let cnf = gen_cnf rand ~num_vars ~num_clauses ~width:3 in
      let assumption =
        if Random.State.bool rand then Lit.Pos 0 else Lit.Neg 0
      in
      let with_assumption =
        let s = Solver.of_clauses ~num_vars cnf in
        Solver.solve ~assumptions:[ assumption ] s = Solver.Sat
      in
      let with_unit =
        Brute.is_sat ~num_vars ([ assumption ] :: cnf)
      in
      with_assumption = with_unit)

(* A solver copied from a compiled theory's image behaves exactly like a
   fresh [Solver.of_clauses] over the same clauses: the same result, model
   and conflict/decision/propagation deltas on every solve, also after
   clauses or variables are added to both.  The CNFs include unit clauses
   and, now and then, a complementary pair of them (root-inconsistent). *)
type step = Solve of Lit.t list | Add of Lit.t list | New_var

let random_lit rand n =
  let v = Random.State.int rand n in
  if Random.State.bool rand then Lit.Pos v else Lit.Neg v

let random_steps rand n =
  List.init (2 + Random.State.int rand 7) (fun _ ->
      match Random.State.int rand 6 with
      | 0 -> Add (List.init (1 + Random.State.int rand 3) (fun _ -> random_lit rand (n + 1)))
      | 1 -> New_var
      | _ -> Solve (List.init (Random.State.int rand 4) (fun _ -> random_lit rand n)))

let run_steps s steps =
  List.filter_map
    (function
      | Add c ->
        Solver.add_clause s c;
        None
      | New_var -> Some (`Var (Solver.new_var s))
      | Solve assumptions ->
        let before = Stats.snapshot () in
        let r = Solver.solve ~assumptions s in
        let d = Stats.delta before in
        let model =
          if r = Solver.Sat then Interp.to_list (Solver.model s) else []
        in
        Some
          (`Solve
            ( r,
              model,
              d.Stats.conflicts,
              d.Stats.decisions,
              d.Stats.propagations )))
    steps

let qcheck_copy_matches_fresh =
  QCheck.Test.make ~count:(Gen.qcheck_count 300)
    ~name:"a copy of the image solves exactly like a fresh solver"
    QCheck.(triple (int_bound 99999) (int_range 1 10) (int_range 0 40))
    (fun (seed, num_vars, num_clauses) ->
      let rand = Random.State.make [| seed |] in
      let units =
        List.init (Random.State.int rand 3) (fun _ -> [ random_lit rand num_vars ])
      in
      let clash =
        if Random.State.int rand 5 = 0 then [ [ Lit.Pos 0 ]; [ Lit.Neg 0 ] ]
        else []
      in
      let cnf = units @ gen_cnf rand ~num_vars ~num_clauses ~width:3 @ clash in
      let theory = Minimal.theory ~num_vars cnf in
      let agree steps =
        run_steps (Minimal.solver_of theory) steps
        = run_steps (Solver.of_clauses ~num_vars cnf) steps
      in
      (* the second and third copies are taken after earlier copies were
         solved and grown *)
      agree (random_steps rand num_vars)
      && agree (random_steps rand num_vars)
      && agree (random_steps rand num_vars))

let enum_suite =
  [
    Alcotest.test_case "all models of a v b" `Quick (fun () ->
        let ms = Enum.all_models ~num_vars:2 [ [ Lit.Pos 0; Lit.Pos 1 ] ] in
        check_int "3 models" 3 (List.length ms));
    Alcotest.test_case "projection dedupes" `Quick (fun () ->
        (* var 2 is free; projecting to 2 vars must not duplicate *)
        let solver = Solver.of_clauses ~num_vars:3 [ [ Lit.Pos 0 ] ] in
        let seen = ref [] in
        Enum.iter ~universe:2 solver (fun m ->
            seen := m :: !seen;
            `Continue);
        check_int "2 projections" 2 (List.length !seen);
        check "distinct" true
          (match !seen with [ a; b ] -> not (Interp.equal a b) | _ -> false));
    Alcotest.test_case "limit respected" `Quick (fun () ->
        (* 16 models; the budget's models cap is the one enumeration limit *)
        let under models =
          Ddb_budget.Budget.(run (limits ~models ()))
            (fun () -> Enum.all_models ~num_vars:4 [])
        in
        check "a tight cap trips" true
          (under 2 = Error Ddb_budget.Budget.Budget_exhausted);
        match under 16 with
        | Ok ms -> check_int "a slack cap lists all" 16 (List.length ms)
        | Error _ -> Alcotest.fail "a slack cap tripped");
    Alcotest.test_case "unsat enumerates nothing" `Quick (fun () ->
        check_int "none" 0
          (List.length (Enum.all_models ~num_vars:1 [ [ Lit.Pos 0 ]; [ Lit.Neg 0 ] ])));
  ]

let qcheck_enum_complete =
  QCheck.Test.make ~count:200 ~name:"enumeration matches truth table"
    QCheck.(triple (int_bound 9999) (int_range 1 5) (int_range 0 10))
    (fun (seed, num_vars, num_clauses) ->
      let rand = Random.State.make [| seed |] in
      let cnf = gen_cnf rand ~num_vars ~num_clauses ~width:3 in
      let by_enum =
        List.sort Interp.compare (Enum.all_models ~num_vars cnf)
      in
      let by_brute = List.sort Interp.compare (Brute.models ~num_vars cnf) in
      List.length by_enum = List.length by_brute
      && List.for_all2 Interp.equal by_enum by_brute)

let horn_suite =
  [
    Alcotest.test_case "least model chain" `Quick (fun () ->
        let rules =
          [
            Horn.rule ~head:0 ~body:[];
            Horn.rule ~head:1 ~body:[ 0 ];
            Horn.rule ~head:2 ~body:[ 0; 1 ];
            Horn.rule ~head:3 ~body:[ 4 ];
          ]
        in
        let m = Horn.least_model ~num_vars:5 rules in
        check "0,1,2 in" true
          (Interp.mem m 0 && Interp.mem m 1 && Interp.mem m 2);
        check "3,4 out" true (not (Interp.mem m 3) && not (Interp.mem m 4)));
    Alcotest.test_case "least model is least" `Quick (fun () ->
        (* every model of the definite program contains the least model *)
        let rules =
          [ Horn.rule ~head:0 ~body:[]; Horn.rule ~head:1 ~body:[ 0 ] ]
        in
        let lm = Horn.least_model ~num_vars:3 rules in
        let clauses =
          List.map
            (fun (r : Horn.rule) ->
              Lit.Pos r.head :: List.map (fun b -> Lit.Neg b) r.body)
            rules
        in
        List.iter
          (fun m ->
            if Brute.satisfies m clauses then
              check "contains lm" true (Interp.subset lm m))
          (Interp.all 3));
    Alcotest.test_case "integrity check" `Quick (fun () ->
        let m = Interp.of_list 3 [ 0; 1 ] in
        check "violated" false (Horn.integrity_ok m [ [ 0; 1 ] ]);
        check "ok" true (Horn.integrity_ok m [ [ 0; 2 ] ]));
    Alcotest.test_case "empty program" `Quick (fun () ->
        check "empty" true
          (Interp.is_empty (Horn.least_model ~num_vars:4 [])));
  ]

(* --- minimal models --- *)

let minimal_reference ~num_vars clauses part =
  let models = Brute.models ~num_vars clauses in
  Minimal.minimal_of_models part models

let minimal_suite =
  [
    Alcotest.test_case "minimal models of a v b" `Quick (fun () ->
        let theory = Minimal.theory ~num_vars:2 [ [ Lit.Pos 0; Lit.Pos 1 ] ] in
        let ms =
          List.sort Interp.compare
            (Minimal.all_minimal theory (Partition.minimize_all 2))
        in
        check_int "two" 2 (List.length ms);
        List.iter (fun m -> check_int "singletons" 1 (Interp.cardinal m)) ms);
    Alcotest.test_case "is_minimal" `Quick (fun () ->
        let theory = Minimal.theory ~num_vars:2 [ [ Lit.Pos 0; Lit.Pos 1 ] ] in
        let part = Partition.minimize_all 2 in
        check "{a} minimal" true
          (Minimal.is_minimal theory part (Interp.of_list 2 [ 0 ]));
        check "{a,b} not minimal" false
          (Minimal.is_minimal theory part (Interp.of_list 2 [ 0; 1 ])));
    Alcotest.test_case "minimize descends" `Quick (fun () ->
        let theory = Minimal.theory ~num_vars:3 [ [ Lit.Pos 0; Lit.Pos 1 ] ] in
        let part = Partition.minimize_all 3 in
        let m = Minimal.minimize theory part (Interp.of_list 3 [ 0; 1; 2 ]) in
        check "below" true (Interp.subset m (Interp.of_list 3 [ 0; 1; 2 ]));
        check "minimal" true (Minimal.is_minimal theory part m));
    Alcotest.test_case "find_minimal on inconsistent theory" `Quick (fun () ->
        let theory = Minimal.theory ~num_vars:1 [ [ Lit.Pos 0 ]; [ Lit.Neg 0 ] ] in
        check "none" true
          (Minimal.find_minimal theory (Partition.minimize_all 1) = None));
    Alcotest.test_case "(P;Z) minimality with fixed and floating atoms" `Quick
      (fun () ->
        (* theory: p v q (atoms p=0, fixed f=1, floating z=2); clause f -> z *)
        let clauses = [ [ Lit.Pos 0 ]; [ Lit.Neg 1; Lit.Pos 2 ] ] in
        let theory = Minimal.theory ~num_vars:3 clauses in
        let part = Partition.of_lists 3 ~p:[ 0 ] ~q:[ 1 ] ~z:[ 2 ] in
        (* {p,f,z} is minimal: p is forced, f fixed, z floats *)
        check "minimal with fixed" true
          (Minimal.is_minimal theory part (Interp.of_list 3 [ 0; 1; 2 ]));
        check "minimal without fixed" true
          (Minimal.is_minimal theory part (Interp.of_list 3 [ 0 ])));
    Alcotest.test_case "find_minimal_such_that" `Quick (fun () ->
        (* a v b, want a minimal model containing b *)
        let theory = Minimal.theory ~num_vars:2 [ [ Lit.Pos 0; Lit.Pos 1 ] ] in
        let part = Partition.minimize_all 2 in
        (match
           Minimal.find_minimal_such_that ~extra:[ [ Lit.Pos 1 ] ] theory part
         with
        | Some m ->
          check "contains b" true (Interp.mem m 1);
          check "is minimal" true (Minimal.is_minimal theory part m)
        | None -> Alcotest.fail "expected a witness");
        (* no minimal model contains both a and b *)
        check "none with both" true
          (Minimal.find_minimal_such_that
             ~extra:[ [ Lit.Pos 0 ]; [ Lit.Pos 1 ] ]
             theory part
          = None));
  ]

let qcheck_all_minimal_matches_reference =
  QCheck.Test.make ~count:300 ~name:"all_minimal matches brute-force reference"
    QCheck.(triple (int_bound 9999) (int_range 1 5) (int_range 0 10))
    (fun (seed, num_vars, num_clauses) ->
      let rand = Random.State.make [| seed |] in
      let cnf = gen_cnf rand ~num_vars ~num_clauses ~width:3 in
      let theory = Minimal.theory ~num_vars cnf in
      let part = Partition.minimize_all num_vars in
      let got = List.sort Interp.compare (Minimal.all_minimal theory part) in
      let expected =
        List.sort Interp.compare (minimal_reference ~num_vars cnf part)
      in
      List.length got = List.length expected
      && List.for_all2 Interp.equal got expected)

(* [find_minimal_such_that ~extra ~check] against the brute-force
   definition: it finds a model exactly when some (P;Z)-minimal model
   satisfies the plain-atom [extra] clauses and [check], and what it finds
   is one of those.  [check] is a random predicate of the model's
   (P,Q)-section, the contract the search states for it. *)
let qcheck_find_minimal_such_that_matches_reference =
  QCheck.Test.make ~count:(Gen.qcheck_count 300)
    ~name:"find_minimal_such_that ?check matches brute-force reference"
    QCheck.(
      quad (int_bound 99999) (int_range 1 5) (int_range 0 10) (int_range 0 3))
    (fun (seed, num_vars, num_clauses, num_extra) ->
      let rand = Random.State.make [| seed |] in
      let cnf = gen_cnf rand ~num_vars ~num_clauses ~width:3 in
      let extra = gen_cnf rand ~num_vars ~num_clauses:num_extra ~width:2 in
      let part = Gen.random_partition rand num_vars in
      let salt = Random.State.bits rand in
      let pq = Interp.union (Partition.p part) (Partition.q part) in
      let check m =
        Hashtbl.hash (salt, Interp.to_list (Interp.inter m pq)) land 1 = 0
      in
      let answers =
        List.filter
          (fun m -> Brute.satisfies m extra && check m)
          (minimal_reference ~num_vars cnf part)
      in
      match
        Minimal.find_minimal_such_that ~extra ~check
          (Minimal.theory ~num_vars cnf)
          part
      with
      | None -> answers = []
      | Some m -> List.exists (Interp.equal m) answers)

let qcheck_is_minimal_matches_reference =
  QCheck.Test.make ~count:300 ~name:"is_minimal matches reference under (P;Q;Z)"
    QCheck.(pair (int_bound 9999) (int_range 2 5))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let cnf = gen_cnf rand ~num_vars ~num_clauses:(num_vars * 2) ~width:3 in
      let part = Gen.random_partition rand num_vars in
      let models = Brute.models ~num_vars cnf in
      let reference = minimal_reference ~num_vars cnf part in
      let theory = Minimal.theory ~num_vars cnf in
      List.for_all
        (fun m ->
          Minimal.is_minimal theory part m
          = List.exists (Interp.equal m) reference)
        models)

(* [Minimal.harvest] of P's atoms against the brute-force definition of the
   support set: the P-atoms true in some (P;Z)-minimal model.  Q and Z are never empty;
   P is empty on many small universes, and one theory in eight carries a
   contradiction, so S = ∅ is checked too. *)
let qcheck_support_matches_reference =
  QCheck.Test.make ~count:(Gen.qcheck_count 300)
    ~name:"support matches brute-force reference under (P;Q;Z)"
    QCheck.(
      quad (int_bound 99999) (int_range 2 7) (int_range 0 20) (int_bound 7))
    (fun (seed, num_vars, num_clauses, contradict) ->
      let rand = Random.State.make [| seed |] in
      let cnf = gen_cnf rand ~num_vars ~num_clauses ~width:3 in
      let cnf =
        if contradict = 0 then [ Lit.Pos 0 ] :: [ Lit.Neg 0 ] :: cnf else cnf
      in
      let q0 = Random.State.int rand num_vars in
      let z0 = (q0 + 1 + Random.State.int rand (num_vars - 1)) mod num_vars in
      let bucket v =
        if v = q0 then 1 else if v = z0 then 2 else Random.State.int rand 3
      in
      let buckets = Array.init num_vars bucket in
      let pick k =
        List.filter (fun v -> buckets.(v) = k) (List.init num_vars Fun.id)
      in
      let part =
        Partition.of_lists num_vars ~p:(pick 0) ~q:(pick 1) ~z:(pick 2)
      in
      let expected =
        List.fold_left
          (fun s m -> Interp.union s (Interp.inter m (Partition.p part)))
          (Interp.empty num_vars)
          (minimal_reference ~num_vars cnf part)
      in
      Interp.equal expected
        (fst
           (Minimal.harvest (Minimal.theory ~num_vars cnf) part
              ~pos:(Partition.p part) ~neg:(Interp.empty num_vars))))

(* [Minimal.harvest] at the total partition against its brute-force
   definition: the atoms of [pos] true, and of [neg] false, in some
   ⊆-minimal model passing [check].  The targets are random subsets and
   [check] a random predicate, so a harvest that skips a model, or stops
   while literals are missing, shows. *)
let qcheck_harvest_matches_reference =
  QCheck.Test.make ~count:(Gen.qcheck_count 300)
    ~name:"harvest matches brute-force reference (both polarities, a check)"
    QCheck.(triple (int_bound 99999) (int_range 1 7) (int_range 0 12))
    (fun (seed, num_vars, num_clauses) ->
      let rand = Random.State.make [| seed |] in
      (* Mostly positive literals, so a theory has many minimal models. *)
      let cnf =
        List.init num_clauses (fun _ ->
            List.init
              (1 + Random.State.int rand 3)
              (fun _ ->
                let v = Random.State.int rand num_vars in
                if Random.State.int rand 4 = 0 then Lit.Neg v else Lit.Pos v))
      in
      let subset () =
        Interp.of_pred num_vars (fun _ -> Random.State.int rand 3 = 0)
      in
      let pos = subset () and neg = subset () in
      let check m = Hashtbl.hash (seed, Interp.to_list m) mod 3 <> 0 in
      let part = Partition.minimize_all num_vars in
      let intended =
        List.filter check (minimal_reference ~num_vars cnf part)
      in
      let union f =
        List.fold_left
          (fun s m -> Interp.union s (f m))
          (Interp.empty num_vars) intended
      in
      let t, f =
        Minimal.harvest ~check (Minimal.theory ~num_vars cnf) part ~pos ~neg
      in
      Interp.equal t (union (Interp.inter pos))
      && Interp.equal f (union (fun m -> Interp.diff neg m)))

(* The asserting encoder: an interpretation satisfies F iff F's clauses
   plus the interpretation's units are satisfiable. *)
let rec gen_assert_formula rand num_vars depth =
  let sub () = gen_assert_formula rand num_vars (depth - 1) in
  if depth = 0 || Random.State.int rand 5 = 0 then
    match Random.State.int rand 8 with
    | 0 -> Formula.True
    | 1 -> Formula.False
    | 2 -> Formula.Not (Formula.Atom (Random.State.int rand num_vars))
    | _ -> Formula.Atom (Random.State.int rand num_vars)
  else
    match Random.State.int rand 6 with
    | 0 -> Formula.And (sub (), sub ())
    | 1 -> Formula.Or (sub (), sub ())
    | 2 -> Formula.Not (sub ())
    | 3 | 4 -> Formula.Imp (sub (), Formula.Imp (sub (), sub ()))
    | _ -> Formula.Iff (sub (), sub ())

let units ~num_vars m =
  List.init num_vars (fun x ->
      [ (if Interp.mem m x then Lit.Pos x else Lit.Neg x) ])

let satisfiable ~num_vars clauses =
  Solver.solve (Solver.of_clauses ~num_vars clauses) = Solver.Sat

let encoding_agrees ~num_vars f =
  let groups, next_var = Cnf.assert_clauses ~next_var:num_vars f in
  let clauses = List.concat groups in
  List.for_all
    (fun m ->
      satisfiable ~num_vars:next_var (clauses @ units ~num_vars m)
      = Formula.eval m f)
    (Brute.models ~num_vars [])

(* The literal face, the engine's shared-solver invariant: the definitions
   never constrain the atoms, assuming the named literal L asks for F, and
   a literal names itself. *)
let literal_face_agrees ~num_vars f =
  let clauses, next_var, l = Cnf.named_literal ~next_var:num_vars f in
  List.for_all
    (fun m ->
      let base = clauses @ units ~num_vars m in
      satisfiable ~num_vars:next_var base
      && satisfiable ~num_vars:next_var ([ l ] :: base) = Formula.eval m f)
    (Brute.models ~num_vars [])
  &&
  match f with
  | Formula.Atom x -> clauses = [] && l = Lit.Pos x
  | Formula.Not (Formula.Atom x) -> clauses = [] && l = Lit.Neg x
  | _ -> true

(* The group order contract: each group defines at most one new auxiliary
   and otherwise reads atoms and auxiliaries of earlier groups. *)
let groups_in_order ~num_vars f =
  let groups, next_var = Cnf.assert_clauses ~next_var:num_vars f in
  let defined = Array.make (next_var - num_vars) false in
  List.for_all
    (fun group ->
      let fresh =
        List.sort_uniq Int.compare
          (List.filter_map
             (fun l ->
               let x = Lit.atom l in
               if x >= num_vars && not defined.(x - num_vars) then Some x
               else None)
             (List.concat group))
      in
      List.iter (fun x -> defined.(x - num_vars) <- true) fresh;
      List.length fresh <= 1)
    groups
  && Array.for_all Fun.id defined

let assert_clauses_suite =
  let a = Formula.Atom 0 and b = Formula.Atom 1 and c = Formula.Atom 2 in
  [
    Alcotest.test_case "xor asserted on a solver" `Quick (fun () ->
        let f = Formula.(Iff (a, Not b)) in
        let groups, next_var = Cnf.assert_clauses ~next_var:2 f in
        let s = Solver.create ~num_vars:next_var () in
        List.iter (List.iter (Solver.add_clause s)) groups;
        check "sat" true (Solver.solve s = Solver.Sat);
        let m = Solver.model ~universe:2 s in
        check "xor holds" true (Interp.mem m 0 <> Interp.mem m 1));
    Alcotest.test_case "constants, Iff and nested Imp" `Quick (fun () ->
        List.iter
          (fun f ->
            check (Formula.to_string f) true (encoding_agrees ~num_vars:3 f))
          Formula.
            [
              True;
              False;
              Not True;
              Iff (a, Not b);
              Not (Iff (a, True));
              Imp (Imp (a, b), Imp (c, False));
              And (Iff (a, b), Or (Not (And (b, c)), False));
            ]);
    Alcotest.test_case "clause-shaped conjuncts need no auxiliary" `Quick
      (fun () ->
        let f =
          Formula.(And (Or (a, Not b), And (Imp (c, a), Not (And (a, c)))))
        in
        let groups, next_var = Cnf.assert_clauses ~next_var:3 f in
        let one_clause_each =
          Lit.[ [ [ Pos 0; Neg 1 ] ]; [ [ Neg 2; Pos 0 ] ]; [ [ Neg 0; Neg 2 ] ] ]
        in
        check_int "no auxiliary" 3 next_var;
        check "one clause per conjunct" true (groups = one_clause_each));
  ]

let qcheck_assert_clauses =
  QCheck.Test.make ~count:(Gen.qcheck_count 300)
    ~name:
      "asserting encoding: m |= F iff clauses + units(m) satisfiable; \
       literal face: defs + units(m) always, + [L] iff m |= F"
    QCheck.(pair (int_bound 99999) (int_range 1 6))
    (fun (seed, num_vars) ->
      let rand = Random.State.make [| seed |] in
      let f = gen_assert_formula rand num_vars 4 in
      encoding_agrees ~num_vars f
      && groups_in_order ~num_vars f
      && literal_face_agrees ~num_vars f)

let suites =
  [
    ("sat.solver", solver_suite);
    ( "sat.solver.properties",
      List.map QCheck_alcotest.to_alcotest
        [
          qcheck_solver_agrees;
          qcheck_assumptions_sound;
          qcheck_copy_matches_fresh;
        ] );
    ("sat.cnf", assert_clauses_suite);
    ( "sat.cnf.properties",
      [ QCheck_alcotest.to_alcotest qcheck_assert_clauses ] );
    ("sat.enum", enum_suite);
    ( "sat.enum.properties",
      [ QCheck_alcotest.to_alcotest qcheck_enum_complete ] );
    ("sat.horn", horn_suite);
    ("sat.minimal", minimal_suite);
    ( "sat.minimal.properties",
      List.map QCheck_alcotest.to_alcotest
        [
          qcheck_all_minimal_matches_reference;
          qcheck_find_minimal_such_that_matches_reference;
          qcheck_is_minimal_matches_reference;
          qcheck_support_matches_reference;
          qcheck_harvest_matches_reference;
        ] );
  ]
