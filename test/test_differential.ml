open Ddb_logic
open Ddb_db
open Ddb_core
module Engine = Ddb_engine.Engine

(* Differential property tests across the semantics: the paper's inclusion
   relationships, the ECWA/circumscription equivalence, SAT-based versus
   brute-force minimal models, and agreement of every engine configuration
   with the reference model sets.
   Iteration counts default low; the @slowtest alias raises them via
   DDB_QCHECK_COUNT. *)

let count n = Gen.qcheck_count n
let seeds = QCheck.int_bound 999999
let rand_of seed = Random.State.make [| seed |]

(* Direct questions run on the paper's baseline configuration. *)
let eng = Gen.baseline ()

(* DDR/WGCWA is the *weaker* negation rule: an atom it negates is negated
   by GCWA too, never conversely.  (DB = {a ∨ b, a}: GCWA ⊨ ¬b because b
   holds in no minimal model, but b occurs in a disjunctive head so DDR
   keeps it open.)  This is the GCWA ⊇ WGCWA inclusion of the paper's
   semantics lattice. *)
let qcheck_ddr_implies_gcwa =
  QCheck.Test.make ~count:(count 40)
    ~name:"DDR ⊨ ¬x implies GCWA ⊨ ¬x (positive DDBs)" seeds (fun seed ->
      let rand = rand_of seed in
      let num_vars = 1 + Random.State.int rand 6 in
      let db = Gen.positive_db rand ~num_vars ~num_clauses:(2 * num_vars) in
      List.for_all
        (fun x ->
          (not (Registry.infer_literal_in eng ~sem:"ddr" db (Lit.Neg x)))
          || Registry.infer_literal_in eng ~sem:"gcwa" db (Lit.Neg x))
        (List.init num_vars Fun.id))

(* Every minimal model of DB is a model of GCWA(DB) = DB ∪ {¬x : x in no
   minimal model}, so GCWA-cautious consequence implies EGCWA-cautious
   consequence on arbitrary formulas. *)
let qcheck_gcwa_implies_egcwa =
  QCheck.Test.make ~count:(count 40)
    ~name:"GCWA ⊨ F implies EGCWA ⊨ F (positive DDBs)" seeds (fun seed ->
      let rand = rand_of seed in
      let num_vars = 1 + Random.State.int rand 6 in
      let db = Gen.positive_db rand ~num_vars ~num_clauses:(2 * num_vars) in
      let f = Gen.random_formula rand num_vars ~depth:3 in
      (not (Registry.infer_formula_in eng ~sem:"gcwa" db f))
      || Registry.infer_formula_in eng ~sem:"egcwa" db f)

(* ECWA coincides with parallel predicate circumscription in the finite
   propositional case (the two modules implement the two definitions
   independently: minimal-model entailment vs the circumscription schema). *)
let qcheck_ecwa_equals_circ =
  QCheck.Test.make ~count:(count 40)
    ~name:"ECWA ≡ CIRC on random DNDBs and partitions" seeds (fun seed ->
      let rand = rand_of seed in
      let num_vars = 1 + Random.State.int rand 5 in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(2 * num_vars) in
      let part = Gen.random_partition rand num_vars in
      let f = Gen.random_formula rand num_vars ~depth:3 in
      (Gen.record ~part eng "ecwa").Semantics.infer_formula db f
      = (Gen.record ~part eng "circ").Semantics.infer_formula db f)

(* The SAT-based minimize-then-block enumeration must produce exactly the
   brute-force minimal models. *)
let qcheck_minimal_models_coincide =
  QCheck.Test.make ~count:(count 40)
    ~name:"SAT minimal-model enumeration ≡ brute force" seeds (fun seed ->
      let rand = rand_of seed in
      let num_vars = 1 + Random.State.int rand 6 in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(2 * num_vars) in
      Gen.interp_list_equal (Models.minimal_models db)
        (Models.brute_minimal_models db))

(* The four-configuration differential on fresh engines per case, so each
   case exercises the cold cache, the warm cache (the formula is asked
   twice) and the uncached path, with and without fast paths, against the
   reference model set of every applicable registry semantics. *)
let qcheck_cached_equals_uncached =
  QCheck.Test.make ~count:(count 25)
    ~name:"engine: cached ≡ uncached ≡ reference, fast path on and off, on all semantics"
    seeds (fun seed ->
      let rand = rand_of seed in
      let num_vars = 1 + Random.State.int rand 5 in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(2 * num_vars) in
      let x = Random.State.int rand num_vars in
      let f = Gen.random_formula rand num_vars ~depth:2 in
      let engines = Gen.configurations () in
      let errors =
        List.concat_map
          (fun name ->
            let s = Option.get (Registry.find name) in
            if not (s.Semantics.applicable db) then []
            else
              Gen.differential ~engines ~sem:name db
                ~lits:[ Lit.Neg x; Lit.Pos x ]
                ~formulas:[ f; f ])
          Registry.names
      in
      errors = [] || QCheck.Test.fail_report (String.concat "; " errors))

let suites =
  [
    ( "differential",
      List.map QCheck_alcotest.to_alcotest
        [
          qcheck_ddr_implies_gcwa;
          qcheck_gcwa_implies_egcwa;
          qcheck_ecwa_equals_circ;
          qcheck_minimal_models_coincide;
          qcheck_cached_equals_uncached;
        ] );
  ]
