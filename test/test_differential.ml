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
   propositional case (Lifschitz).  The circ record is ECWA's record under
   its own name, so the independent side is Lifschitz's schema: on random
   DNDBs and partitions, both records' formula answers are truth in every
   brute model that passes [Circ.is_circ_model], those models are ECWA's
   reference models, and a witness either record returns is such a model
   satisfying its query (and exists iff one does). *)
let qcheck_ecwa_equals_circ =
  QCheck.Test.make ~count:(count 40)
    ~name:"ECWA ≡ CIRC on random DNDBs and partitions, against the schema"
    seeds (fun seed ->
      let rand = rand_of seed in
      let num_vars = 1 + Random.State.int rand 5 in
      let db = Gen.dndb rand ~num_vars ~num_clauses:(2 * num_vars) in
      let part = Gen.random_partition rand num_vars in
      let f = Gen.random_formula rand num_vars ~depth:3 in
      let schema =
        List.filter (Circ.is_circ_model db part) (Models.brute_models db)
      in
      let witness_ok (r : Semantics.t) g =
        match r.witness eng db g with
        | None -> not (List.exists (fun m -> Formula.eval m g) schema)
        | Some (Semantics.Two_valued m) ->
          Circ.is_circ_model db part m && Formula.eval m g
        | Some (Semantics.Three_valued _) -> false
      in
      Gen.interp_list_equal schema
        ((Gen.record ~part "ecwa").Semantics.reference_models db)
      && List.for_all
           (fun sem ->
             let r = Gen.record ~part sem in
             r.Semantics.infer_formula eng db f
             = List.for_all (fun m -> Formula.eval m f) schema
             && witness_ok r f
             && witness_ok r (Formula.not_ f))
           [ "ecwa"; "circ" ])

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

(* PERF and DSM literal sweeps on a cached engine read one harvested
   consequence set per theory.  A full ± sweep, forward and reversed, each
   on fresh engines of all four configurations, must answer as the
   reference model set does.  On the cached engine without fast paths the
   first question runs its own search and the second builds the harvest,
   so the other 2n − 2 answers are its memo hits. *)
let qcheck_harvested_sweeps =
  QCheck.Test.make ~count:(count 40)
    ~name:"PERF/DSM ± sweeps read the harvest ≡ reference, both orders, all configurations"
    seeds (fun seed ->
      let rand = rand_of seed in
      let num_vars = 1 + Random.State.int rand 7 in
      let num_clauses = 2 * num_vars in
      let db =
        if Random.State.bool rand then Gen.dndb rand ~num_vars ~num_clauses
        else Gen.dddb_with_integrity rand ~num_vars ~num_clauses
      in
      let lits =
        List.concat_map (fun x -> [ Lit.Neg x; Lit.Pos x ]) (List.init num_vars Fun.id)
      in
      let errors =
        List.concat_map
          (fun sem ->
            List.concat_map
              (fun lits ->
                let engines = Gen.configurations () in
                let wrong = Gen.differential ~engines ~sem db ~lits ~formulas:[] in
                let harvested =
                  List.assoc "cache=true fastpath=false" engines
                in
                let hits = (Engine.totals harvested).Engine.cache_hits in
                if hits = (2 * num_vars) - 2 then wrong
                else
                  Printf.sprintf "%s: %d memo hits, not %d" sem hits
                    ((2 * num_vars) - 2)
                  :: wrong)
              [ lits; List.rev lits ])
          [ "perf"; "dsm" ]
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
          qcheck_harvested_sweeps;
        ] );
  ]
