open Bechamel
open Toolkit
open Ddb_logic
open Ddb_core
open Ddb_workload

(* Bechamel micro-benchmarks: one Test.make per table (grouped), pinned at a
   fixed representative size so the statistics are meaningful, plus the
   ablation group.  The scaling story lives in Harness; this gives solid
   per-cell timing estimates with OLS. *)

let fixed_n = 16

(* The closed-world cells run on the paper's baseline configuration: a
   fresh engine per call, without cache or fast path. *)
let base () = Ddb_engine.Engine.create ~cache:false ~fastpath:false ()

let query n = Random_db.formula ~seed:n ~num_vars:n ~depth:2

let table1_tests =
  let db = Random_db.positive ~seed:1 ~num_vars:fixed_n in
  let f = query fixed_n in
  let lit = Lit.Neg (fixed_n / 2) in
  let part = Partition.minimize_all fixed_n in
  Test.make_grouped ~name:"table1" ~fmt:"%s/%s"
    [
      Test.make ~name:"gcwa-lit" (Staged.stage (fun () -> Gcwa.infer_literal_in (base ()) db lit));
      Test.make ~name:"gcwa-form"
        (Staged.stage (fun () -> Oracle_algorithms.gcwa_formula_in (base ()) db f));
      Test.make ~name:"ddr-lit" (Staged.stage (fun () -> Ddr.infer_literal_in (base ()) db lit));
      Test.make ~name:"ddr-form" (Staged.stage (fun () -> Ddr.infer_formula_in (base ()) db f));
      Test.make ~name:"pws-lit" (Staged.stage (fun () -> Pws.infer_literal db lit));
      Test.make ~name:"pws-form" (Staged.stage (fun () -> Pws.infer_formula db f));
      Test.make ~name:"egcwa-form" (Staged.stage (fun () -> Egcwa.infer_formula_in (base ()) db f));
      Test.make ~name:"ecwa-form"
        (Staged.stage (fun () -> Ecwa.infer_formula_in (base ()) db part f));
      Test.make ~name:"icwa-form"
        (Staged.stage (fun () -> Icwa.infer_formula db part f));
      Test.make ~name:"perf-form" (Staged.stage (fun () -> Perf.infer_formula db f));
      Test.make ~name:"dsm-form" (Staged.stage (fun () -> Dsm.infer_formula db f));
    ]

let table2_tests =
  let db = Random_db.with_integrity ~seed:2 ~num_vars:fixed_n in
  let dndb = Random_db.normal ~seed:3 ~num_vars:fixed_n in
  let strat = Random_db.stratified ~seed:4 ~num_vars:fixed_n () in
  let f = query fixed_n in
  let lit = Lit.Neg (fixed_n / 2) in
  let part = Partition.minimize_all fixed_n in
  Test.make_grouped ~name:"table2" ~fmt:"%s/%s"
    [
      Test.make ~name:"gcwa-lit" (Staged.stage (fun () -> Gcwa.infer_literal_in (base ()) db lit));
      Test.make ~name:"ddr-lit" (Staged.stage (fun () -> Ddr.infer_literal_in (base ()) db lit));
      Test.make ~name:"pws-lit" (Staged.stage (fun () -> Pws.infer_literal db lit));
      Test.make ~name:"egcwa-exists"
        (Staged.stage (fun () -> Egcwa.has_model_in (base ()) db));
      Test.make ~name:"ecwa-form"
        (Staged.stage (fun () -> Ecwa.infer_formula_in (base ()) db part f));
      Test.make ~name:"icwa-exists" (Staged.stage (fun () -> Icwa.has_model strat));
      Test.make ~name:"perf-exists" (Staged.stage (fun () -> Perf.has_model dndb));
      Test.make ~name:"dsm-exists" (Staged.stage (fun () -> Dsm.has_model dndb));
    ]

let ablation_tests =
  let num_vars, php = Pigeonhole.unsat_instance 5 in
  Test.make_grouped ~name:"ablation" ~fmt:"%s/%s"
    [
      Test.make ~name:"cdcl-php5"
        (Staged.stage (fun () ->
             Ddb_sat.Solver.solve (Ddb_sat.Solver.of_clauses ~num_vars php)));
      Test.make ~name:"dpll-php5"
        (Staged.stage (fun () -> Ddb_sat.Dpll.is_sat ~num_vars php));
    ]

let all_tests =
  Test.make_grouped ~name:"ddb" ~fmt:"%s/%s"
    [ table1_tests; table2_tests; ablation_tests ]

let run () =
  Fmt.pr "@.=== Bechamel micro-benchmarks (OLS ns/run at n = %d) ===@." fixed_n;
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances all_tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> e
        | Some [] | None -> Float.nan
      in
      Fmt.pr "  %-28s %12.0f ns/run@." name estimate)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)
