open Ddb_logic
open Ddb_qbf

let check = Alcotest.(check bool)

(* Random formula over the given atoms, constants and Iff included. *)
let rec gen_formula rand atoms depth =
  let atom () = Formula.Atom (List.nth atoms (Random.State.int rand (List.length atoms))) in
  if depth = 0 then
    match Random.State.int rand 10 with
    | 0 -> Formula.True
    | 1 -> Formula.False
    | 2 | 3 -> Formula.Not (atom ())
    | _ -> atom ()
  else
    let sub () = gen_formula rand atoms (depth - 1) in
    match Random.State.int rand 6 with
    | 0 -> Formula.And (sub (), sub ())
    | 1 -> Formula.Or (sub (), sub ())
    | 2 -> Formula.Not (sub ())
    | 3 -> Formula.Imp (sub (), sub ())
    | 4 -> Formula.Iff (sub (), sub ())
    | _ -> sub ()

let gen_qbf seed =
  let rand = Random.State.make [| seed |] in
  let n1 = 1 + Random.State.int rand 5 in
  let n2 = 1 + Random.State.int rand 5 in
  let num_vars = n1 + n2 in
  let block1 = List.init n1 Fun.id in
  let block2 = List.init n2 (fun i -> n1 + i) in
  let matrix = gen_formula rand (block1 @ block2) 3 in
  (* X-only conjuncts seed CEGAR's abstraction: sometimes conjoin them, ⊥
     and unsatisfiable ones included, and sometimes keep nothing else, so
     that phi_Y is empty. *)
  let x_only () =
    let x = Formula.Atom (List.nth block1 (Random.State.int rand n1)) in
    match Random.State.int rand 5 with
    | 0 -> Formula.False
    | 1 -> Formula.Iff (x, Formula.Not x)
    | 2 -> Formula.And (x, Formula.Not (Formula.Or (x, Formula.False)))
    | _ -> gen_formula rand block1 2
  in
  let matrix =
    match Random.State.int rand 8 with
    | 0 | 1 | 2 -> matrix
    | 3 | 4 -> Formula.And (x_only (), matrix)
    | 5 -> Formula.Not (Formula.Or (Formula.Not (x_only ()), Formula.Not matrix))
    | 6 -> Formula.And (Formula.And (matrix, x_only ()), x_only ())
    | _ -> x_only ()
  in
  let prefix = if Random.State.bool rand then Qbf.Exists_forall else Qbf.Forall_exists in
  Qbf.make ~prefix ~num_vars ~block1 ~block2 ~matrix

(* exists x forall y . x <-> y: invalid, refuted in the third round after
   two refinements. *)
let needs_refinement () =
  Qbf.make ~prefix:Qbf.Exists_forall ~num_vars:2 ~block1:[ 0 ] ~block2:[ 1 ]
    ~matrix:Formula.(Iff (Atom 0, Atom 1))

(* SAT calls, Σ₂ᵖ calls and CEGAR round spans of [f ()], with its answer. *)
let counted f =
  let before = Ddb_sat.Stats.snapshot () in
  let r = Test_obs.with_trace f in
  let d = Ddb_sat.Stats.delta before in
  let rounds =
    List.length
      (List.filter
         (fun (_, n, ph, _) -> n = "qbf.cegar.round" && ph = 'B')
         (Ddb_obs.Trace.dump ()))
  in
  (r, d.Ddb_sat.Stats.sat, d.Ddb_sat.Stats.sigma2, rounds)

let ef ~matrix =
  Qbf.make ~prefix:Qbf.Exists_forall ~num_vars:2 ~block1:[ 0 ] ~block2:[ 1 ]
    ~matrix

let unit_suite =
  [
    Alcotest.test_case "unsatisfiable X-only part: refuted by one SAT call"
      `Quick (fun () ->
        (* exists x forall y . (x & ~x) & (x | y) *)
        let t =
          ef
            ~matrix:
              Formula.(
                And (And (Atom 0, Not (Atom 0)), Or (Atom 0, Atom 1)))
        in
        let r, sat, sigma2, rounds = counted (fun () -> Cegar.valid t) in
        check "invalid" false r;
        check "one SAT call" true (sat = 1);
        check "one Sigma2 call" true (sigma2 = 1);
        check "one round" true (rounds = 1));
    Alcotest.test_case "X-only matrix: settled by the abstraction alone"
      `Quick (fun () ->
        (* exists x forall y . x: no check solver is needed *)
        let r, sat, sigma2, rounds =
          counted (fun () -> Cegar.valid (ef ~matrix:(Formula.Atom 0)))
        in
        check "valid" true r;
        check "one SAT call" true (sat = 1);
        check "one Sigma2 call" true (sigma2 = 1);
        check "one round" true (rounds = 1));
    Alcotest.test_case "QBF route on an inconsistent database: one SAT call"
      `Quick (fun () ->
        let db = Ddb_db.Db.of_string "a | b. :- a. :- b." in
        let r, sat, sigma2, _ =
          counted (fun () ->
              Ddb_core.Qbf_encodings.gcwa_refutes_neg_literal_qbf db 0)
        in
        check "no minimal model holds a" false r;
        check "one SAT call" true (sat = 1);
        check "one Sigma2 call" true (sigma2 = 1));
    Alcotest.test_case "exists-forall tautology" `Quick (fun () ->
        (* exists x forall y . x | ~x : valid *)
        let t =
          Qbf.make ~prefix:Qbf.Exists_forall ~num_vars:2 ~block1:[ 0 ]
            ~block2:[ 1 ]
            ~matrix:Formula.(Or (Atom 0, Not (Atom 0)))
        in
        check "naive" true (Naive.valid t);
        check "cegar" true (Cegar.valid t));
    Alcotest.test_case "exists-forall dependence" `Quick (fun () ->
        let t = needs_refinement () in
        check "naive" false (Naive.valid t);
        check "cegar" false (Cegar.valid t));
    Alcotest.test_case "forall-exists matching" `Quick (fun () ->
        (* forall x exists y . x <-> y : valid *)
        let t =
          Qbf.make ~prefix:Qbf.Forall_exists ~num_vars:2 ~block1:[ 0 ]
            ~block2:[ 1 ]
            ~matrix:Formula.(Iff (Atom 0, Atom 1))
        in
        check "naive" true (Naive.valid t);
        check "cegar" true (Cegar.valid t));
    Alcotest.test_case "negation duality" `Quick (fun () ->
        let t = gen_qbf 42 in
        check "negate flips" true (Cegar.valid t <> Cegar.valid (Qbf.negate t)));
    Alcotest.test_case "make rejects overlap" `Quick (fun () ->
        check "overlap" true
          (try
             ignore
               (Qbf.make ~prefix:Qbf.Exists_forall ~num_vars:2 ~block1:[ 0 ]
                  ~block2:[ 0 ] ~matrix:(Formula.Atom 0));
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "make rejects free vars" `Quick (fun () ->
        check "free" true
          (try
             ignore
               (Qbf.make ~prefix:Qbf.Exists_forall ~num_vars:3 ~block1:[ 0 ]
                  ~block2:[ 1 ] ~matrix:(Formula.Atom 2));
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "make rejects out-of-range vars" `Quick (fun () ->
        check "range" true
          (try
             ignore
               (Qbf.make ~prefix:Qbf.Exists_forall ~num_vars:2 ~block1:[ 0 ]
                  ~block2:[ 2 ] ~matrix:(Formula.Atom 0));
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "max_rounds stops the loop, spans balanced" `Quick
      (fun () ->
        let t = needs_refinement () in
        check "three rounds suffice" false (Cegar.valid ~max_rounds:3 t);
        let raised =
          Test_obs.with_trace (fun () ->
              try
                ignore (Cegar.valid ~max_rounds:1 t);
                false
              with Cegar.Too_many_rounds -> true)
        in
        check "raises Too_many_rounds" true raised;
        let events = Ddb_obs.Trace.dump () in
        let spans name =
          List.length
            (List.filter (fun (_, n, ph, _) -> n = name && ph = 'B') events)
        in
        check "one call span" true (spans "qbf.cegar" = 1);
        check "one round span" true (spans "qbf.cegar.round" = 1);
        check "balanced" true (Test_obs.spans_balanced events));
  ]

let qcheck_cegar_agrees =
  QCheck.Test.make ~count:(Gen.qcheck_count 500)
    ~name:"cegar agrees with truth-table QBF"
    QCheck.(int_bound 99999)
    (fun seed ->
      let t = gen_qbf seed in
      (* Each refinement excludes the rejected X-assignment, so 2^|X| + 1
         rounds always suffice; an unsound refinement fails here instead of
         looping. *)
      let max_rounds = (1 lsl List.length t.Qbf.block1) + 1 in
      Cegar.valid ~max_rounds t = Naive.valid t)

let suites =
  [
    ("qbf.unit", unit_suite);
    ("qbf.properties", [ QCheck_alcotest.to_alcotest qcheck_cegar_agrees ]);
  ]
