open Ddb_logic
open Ddb_db
open Ddb_core
open Ddb_workload
open Alcotest
module Engine = Ddb_engine.Engine
module Stats = Ddb_sat.Stats

(* Tests for the shared memoizing oracle engine: soundness (every engine
   configuration agrees with the brute-force references on every registry
   semantics, and the oracle primitives match their definitions),
   instrumentation (solver counters are monotone and the engine's
   attribution matches the global Stats deltas), and the hash-consed
   theory keys. *)

(* --- soundness --- *)

(* The seeded workloads the configurations are compared on. *)
let workloads =
  [
    ("positive-7", Random_db.positive ~seed:11 ~num_vars:7);
    ("integrity-7", Random_db.with_integrity ~seed:12 ~num_vars:7);
    ("stratified-6", Random_db.stratified ~seed:13 ~num_vars:6 ());
    ("normal-6", Random_db.normal ~seed:14 ~num_vars:6);
  ]

(* The four-configuration differential on the seeded workloads: cache
   on/off × fast path on/off, every applicable registry semantics, model
   existence, every ± literal and three formulas, each against the
   semantics' reference model set.  The engines are shared across the
   workloads, so the cached ones also answer from memo tables that hold
   other theories. *)
let configurations_agree_with_reference () =
  let engines = Gen.configurations () in
  List.iter
    (fun (wname, db) ->
      let n = Db.num_vars db in
      let lits =
        List.concat_map (fun x -> [ Lit.Neg x; Lit.Pos x ]) (List.init n Fun.id)
      in
      let formulas =
        List.map
          (fun seed -> Random_db.formula ~seed ~num_vars:n ~depth:3)
          [ 21; 22; 23 ]
      in
      List.iter
        (fun name ->
          let s = Option.get (Registry.find name) in
          if s.Semantics.applicable db then
            check (list string)
              (Printf.sprintf "%s/%s" wname name)
              []
              (Gen.differential ~engines ~sem:name db ~lits ~formulas))
        Registry.names)
    workloads;
  List.iter
    (fun (config, eng) ->
      let hits = (Engine.totals eng).Engine.cache_hits in
      if Engine.cache_enabled eng then
        check bool (config ^ " recorded hits") true (hits > 0)
      else check int (config ^ " never consults the cache") 0 hits)
    engines

(* Brute-force definitions of the engine primitives. *)
let brute_support db part =
  let minimal = Models.brute_minimal_models ~part db in
  Interp.of_pred (Db.num_vars db) (fun x ->
      Interp.mem (Partition.p part) x
      && List.exists (fun m -> Interp.mem m x) minimal)

let brute_non_entailed db =
  let models = Models.brute_models db in
  Interp.of_pred (Db.num_vars db) (fun x ->
      List.exists (fun m -> not (Interp.mem m x)) models)

(* Engine primitives against their brute-force definitions, cached and
   uncached (the fast path does not reach the primitives).  The uncached
   [in_some_minimal] is the paper's single constrained query, so it is
   checked atom by atom against the support set. *)
let primitive_soundness () =
  List.iter
    (fun cache ->
      let eng = Engine.create ~cache () in
      let ctx what = Printf.sprintf "%s (cache=%b)" what cache in
      List.iter
        (fun seed ->
          let db = Random_db.with_integrity ~seed ~num_vars:6 in
          let n = Db.num_vars db in
          List.iter
            (fun part ->
              let support = brute_support db part in
              check bool (ctx "support_set = brute") true
                (Interp.equal support (Engine.support_set eng db part));
              check bool (ctx "negated_atoms = P minus support") true
                (Interp.equal
                   (Interp.diff (Partition.p part) support)
                   (Engine.negated_atoms eng db part));
              Interp.iter
                (fun x ->
                  check bool (ctx "in_some_minimal = brute")
                    (Interp.mem support x)
                    (Engine.in_some_minimal eng db part x))
                (Partition.p part))
            [
              Partition.minimize_all n;
              Random_db.random_partition ~seed ~num_vars:n;
            ];
          check bool (ctx "sat = Models.has_model") (Models.has_model db)
            (Engine.sat eng db);
          check bool (ctx "non_entailed_atoms = brute") true
            (Interp.equal (brute_non_entailed db)
               (Engine.non_entailed_atoms eng db)))
        [ 31; 32; 33 ])
    [ true; false ]

(* A repeated query must be answered entirely from the memo tables: the
   second sweep adds zero SAT solve calls. *)
let repeat_queries_hit_cache () =
  let eng = Engine.create () in
  let db = Random_db.positive ~seed:5 ~num_vars:8 in
  let s = Option.get (Registry.find_in eng "gcwa") in
  let sweep () =
    for x = 0 to Db.num_vars db - 1 do
      ignore (s.Semantics.infer_literal db (Lit.Neg x));
      ignore (s.Semantics.infer_literal db (Lit.Pos x))
    done
  in
  sweep ();
  let first = (Engine.totals eng).Engine.sat_solve_calls in
  check bool "first sweep does solve" true (first > 0);
  sweep ();
  let second = (Engine.totals eng).Engine.sat_solve_calls in
  check int "second sweep is free" first second;
  check bool "hits recorded" true ((Engine.totals eng).Engine.cache_hits > 0)

(* The counterexample to a failed closed-world query is the model the
   query's own search found.  On a cached engine, asking the record's
   witness for ¬F repeats the query's oracle ops as memo hits: no SAT call,
   no miss.  EGCWA's search is one op (the minimal-model search); GCWA's is
   two (the support set, then the augmented solve). *)
let counterexample_is_a_memo_hit () =
  let eng = Engine.create () in
  let db = Db.of_string "a | b. c :- a." in
  let f = Parse.formula (Db.vocab db) "c & ~b" in
  List.iter
    (fun (sem, ops) ->
      check bool (sem ^ " answers false") false
        (Registry.infer_formula_in eng ~sem db f);
      let before = Engine.totals eng in
      let s = Option.get (Registry.find_in eng sem) in
      (match s.Semantics.witness db (Formula.not_ f) with
      | Some (Semantics.Two_valued m) ->
        check bool (sem ^ ": the counterexample refutes F") false
          (Formula.eval m f)
      | _ -> fail (sem ^ ": no counterexample"));
      let after = Engine.totals eng in
      let moved field = field after - field before in
      check int (sem ^ ": no SAT call") 0
        (moved (fun t -> t.Engine.sat_solve_calls));
      check int (sem ^ ": memo hits") ops (moved (fun t -> t.Engine.cache_hits));
      check int (sem ^ ": no miss") 0 (moved (fun t -> t.Engine.cache_misses)))
    [ ("gcwa", 2); ("egcwa", 1) ]

(* PERF/DSM literals on a cached engine: a one-shot question makes exactly
   the SAT calls of an uncached engine (the paper's one search per
   literal), the second question of a sweep builds the harvested
   consequence set, and questions 3…2n are answered from it without a SAT
   call. *)
let harvest_from_the_second_question () =
  let sat eng = (Engine.totals eng).Engine.sat_solve_calls in
  List.iter
    (fun (wname, db) ->
      let lits =
        List.concat_map
          (fun x -> [ Lit.Neg x; Lit.Pos x ])
          (List.init (Db.num_vars db) Fun.id)
      in
      List.iter
        (fun sem ->
          let ctx what = Printf.sprintf "%s/%s: %s" wname sem what in
          List.iter
            (fun l ->
              let one_shot cache =
                let eng = Engine.create ~cache ~fastpath:false () in
                ignore (Registry.infer_literal_in eng ~sem db l);
                sat eng
              in
              check int
                (ctx (Lit.to_string l ^ " one-shot: cached = uncached"))
                (one_shot false) (one_shot true))
            lits;
          let eng = Engine.create ~fastpath:false () in
          let ask l = ignore (Registry.infer_literal_in eng ~sem db l) in
          match lits with
          | first :: second :: rest ->
            ask first;
            ask second;
            let harvested = sat eng in
            List.iter ask rest;
            check int (ctx "questions 3…2n make no SAT call") harvested
              (sat eng)
          | _ -> fail (ctx "fewer than two literals"))
        [ "perf"; "dsm" ])
    [
      ("normal-6", Random_db.normal ~seed:14 ~num_vars:6);
      ("integrity-7", Random_db.with_integrity ~seed:12 ~num_vars:7);
      ("quickstart", Db.of_string "dog | cat. sleeping. :- cat, sleeping. muddy :- dog.");
    ]

(* --- instrumentation --- *)

(* Fixed pigeonhole instance: the global conflict/decision/propagation
   counters must move, and must be monotone across repeated solves. *)
let pigeonhole_counters_monotone () =
  let num_vars, cnf = Pigeonhole.unsat_instance 4 in
  let before = Stats.snapshot () in
  let solve () =
    let s = Ddb_sat.Solver.of_clauses ~num_vars cnf in
    check bool "PHP(5,4) unsat" true (Ddb_sat.Solver.solve s = Ddb_sat.Solver.Unsat)
  in
  solve ();
  let d1 = Stats.delta before in
  check int "one solve call" 1 d1.Stats.sat;
  check bool "conflicts counted" true (d1.Stats.conflicts > 0);
  check bool "decisions counted" true (d1.Stats.decisions > 0);
  check bool "propagations counted" true (d1.Stats.propagations > 0);
  solve ();
  let d2 = Stats.delta before in
  check int "two solve calls" 2 d2.Stats.sat;
  check bool "conflicts monotone" true (d2.Stats.conflicts >= d1.Stats.conflicts);
  check bool "decisions monotone" true (d2.Stats.decisions >= d1.Stats.decisions);
  check bool "propagations monotone" true
    (d2.Stats.propagations >= d1.Stats.propagations);
  (* identical deterministic instance: the second solve costs the same *)
  check int "conflicts deterministic" (2 * d1.Stats.conflicts) d2.Stats.conflicts

(* The engine's per-scope attribution must agree with the global Stats
   deltas over the same window. *)
let engine_stats_match_global () =
  let eng = Engine.create () in
  let db = Random_db.with_integrity ~seed:9 ~num_vars:7 in
  let before = Stats.snapshot () in
  for x = 0 to Db.num_vars db - 1 do
    ignore (Registry.infer_literal_in eng ~sem:"gcwa" db (Lit.Neg x))
  done;
  let d = Stats.delta before in
  let t = Engine.totals eng in
  check int "sat calls attributed" d.Stats.sat t.Engine.sat_solve_calls;
  check int "conflicts attributed" d.Stats.conflicts t.Engine.sat_conflicts;
  check int "decisions attributed" d.Stats.decisions t.Engine.sat_decisions;
  check int "propagations attributed" d.Stats.propagations
    t.Engine.sat_propagations;
  match Engine.per_scope eng with
  | [ g ] ->
    check string "single gcwa scope" "gcwa" g.Engine.scope;
    check int "scope sat = total sat" t.Engine.sat_solve_calls
      g.Engine.sat_solve_calls
  | scopes ->
    failf "expected one scope, got %d" (List.length scopes)

(* Every field of every registry record runs in the record's own scope,
   whatever the engine configuration: on a fresh engine the only bucket is
   the record's, it holds all of the engine's work, and under tracing every
   [engine.*] and [fastpath.*] span opens inside that record's
   [scope.<name>] span on its tid. *)
let record_work_lands_in_its_bucket () =
  let dbs =
    [
      ("positive", "a | b. c :- a.");
      ("integrity", "a | b. c :- a. :- b, c.");
      ("normal", "a :- not b. b | c.");
      ("definite", "a. b :- a. c :- d.");
    ]
  in
  let configs =
    [
      ("default", fun () -> Engine.create ());
      ("fastpath:false", fun () -> Engine.create ~fastpath:false ());
      ("cache:false", fun () -> Engine.create ~cache:false ());
    ]
  in
  let spans_scoped name =
    let open_ = Hashtbl.create 2 in
    List.for_all
      (fun (tid, ev, ph, _) ->
        let stack = Option.value (Hashtbl.find_opt open_ tid) ~default:[] in
        match ph with
        | 'B' ->
          Hashtbl.replace open_ tid (ev :: stack);
          (not
             (String.starts_with ~prefix:"engine." ev
             || String.starts_with ~prefix:"fastpath." ev))
          || List.mem ("scope." ^ name) stack
        | 'E' ->
          Hashtbl.replace open_ tid (match stack with [] -> [] | _ :: r -> r);
          true
        | _ -> true)
      (Ddb_obs.Trace.dump ())
  in
  let same_as_totals label (b : Engine.stats) (t : Engine.stats) =
    let field what f = check int (label ^ " " ^ what) (f t) (f b) in
    field "oracle calls" (fun s -> s.Engine.oracle_calls);
    field "cache hits" (fun s -> s.Engine.cache_hits);
    field "cache misses" (fun s -> s.Engine.cache_misses);
    field "sat solves" (fun s -> s.Engine.sat_solve_calls);
    field "sigma2 queries" (fun s -> s.Engine.sigma2_queries);
    field "conflicts" (fun s -> s.Engine.sat_conflicts);
    field "decisions" (fun s -> s.Engine.sat_decisions);
    field "propagations" (fun s -> s.Engine.sat_propagations);
    field "fastpath hits" (fun s -> s.Engine.fastpath_hits);
    field "fastpath misses" (fun s -> s.Engine.fastpath_misses);
    field "classifications" (fun s -> s.Engine.classifications);
    field "unknowns" (fun s -> s.Engine.unknowns)
  in
  List.iter
    (fun (db_name, src) ->
      let db = Db.of_string src in
      let f = Formula.Or (Formula.Atom 0, Formula.Not (Formula.Atom 1)) in
      let fields =
        [
          ("has_model", fun (s : Semantics.t) -> ignore (s.has_model db));
          ("infer_formula", fun s -> ignore (s.infer_formula db f));
          ("witness", fun s -> ignore (s.witness db f));
        ]
        @ List.concat_map
            (fun x ->
              List.map
                (fun l ->
                  ( "infer_literal " ^ Lit.to_string l,
                    fun (s : Semantics.t) -> ignore (s.infer_literal db l) ))
                [ Lit.Pos x; Lit.Neg x ])
            (List.init (Db.num_vars db) Fun.id)
      in
      List.iter
        (fun name ->
          List.iter
            (fun (config, mk) ->
              List.iter
                (fun (field, run) ->
                  let eng = mk () in
                  let s = Option.get (Registry.find_in eng name) in
                  if s.Semantics.applicable db then begin
                    let label =
                      String.concat " " [ name; field; db_name; config ]
                    in
                    Ddb_obs.Trace.start ();
                    Fun.protect ~finally:Ddb_obs.Trace.stop (fun () -> run s);
                    (match Engine.per_scope eng with
                    | [ b ] ->
                      check string (label ^ " bucket") name b.Engine.scope;
                      same_as_totals label b (Engine.totals eng)
                    | scopes ->
                      failf "%s: %d buckets, expected [%s]" label
                        (List.length scopes) name);
                    check bool (label ^ " spans in scope") true
                      (spans_scoped name)
                  end)
                fields)
            configs)
        Registry.names)
    dbs

let stats_json_sanity () =
  let eng = Engine.create () in
  let db = Random_db.positive ~seed:3 ~num_vars:5 in
  ignore (Registry.infer_formula_in eng ~sem:"gcwa" db (Formula.Atom 0));
  let json = Engine.stats_json eng in
  let has needle =
    let nl = String.length needle and jl = String.length json in
    let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  check bool "object" true (String.length json > 0 && json.[0] = '{');
  check bool "cache flag" true (has "\"cache\":true");
  check bool "totals present" true (has "\"cache_hits\"");
  check bool "gcwa bucket present" true (has "\"gcwa\"")

(* --- canonical theory keys --- *)

let theory_key_canonical () =
  let eng = Engine.create () in
  let vocab = Vocab.of_size 3 in
  let c1 = Clause.make ~head:[ 0; 1 ] ~pos:[] ~neg:[] in
  let c2 = Clause.make ~head:[ 2 ] ~pos:[ 0 ] ~neg:[] in
  let db1 = Db.make ~vocab [ c1; c2 ] in
  (* permuted clauses, duplicated clause, permuted head *)
  let db2 =
    Db.make ~vocab [ c2; Clause.make ~head:[ 1; 0 ] ~pos:[] ~neg:[]; c1 ]
  in
  let db3 = Db.make ~vocab [ c1 ] in
  check int "permutation/duplication invariant" (Engine.theory_key eng db1)
    (Engine.theory_key eng db2);
  check bool "different theory, different key" true
    (Engine.theory_key eng db1 <> Engine.theory_key eng db3);
  (* a ∨ b and a ← not b are the same classical clause, but their stable
     and perfect models differ, so they must not share memo entries. *)
  check bool "rule structure is part of the key" true
    (Engine.theory_key eng (Db.of_string "a | b.")
    <> Engine.theory_key eng (Db.of_string "a :- not b."))

(* A database and a structurally equal copy rebuilt from its parts are two
   physical values; the copy must get the key the original got. *)
let rebuilt db = Db.with_universe (Db.make ~vocab:(Db.vocab db) (Db.clauses db)) (Db.num_vars db)

let theory_key_of_rebuilt_copy () =
  let eng = Engine.create () in
  let db = Random_db.normal ~seed:21 ~num_vars:9 in
  let copy = rebuilt db in
  check bool "two physical values" true (db != copy);
  let k = Engine.theory_key eng db in
  check int "repeat" k (Engine.theory_key eng db);
  check int "rebuilt copy" k (Engine.theory_key eng copy);
  check int "original again" k (Engine.theory_key eng db)

(* The remembered database only saves canonicalizations: an engine that
   alternates between two databases answers, hits and misses exactly like
   one that is handed a freshly rebuilt copy (never the remembered value)
   on every query. *)
let alternating_databases_match_rebuilt () =
  let a = Random_db.with_integrity ~seed:22 ~num_vars:7 in
  let b = Random_db.normal ~seed:23 ~num_vars:7 in
  let run pick =
    let eng = Engine.create () in
    let answers =
      List.concat_map
        (fun (s : Semantics.t) ->
          List.concat_map
            (fun x ->
              List.map
                (fun db ->
                  let db = pick db in
                  if s.Semantics.applicable db then
                    Some (s.Semantics.infer_literal db (Lit.Neg x))
                  else None)
                [ a; b; a; b ])
            [ 0; 3; 6 ])
        (Registry.all_in eng)
    in
    (answers, { (Engine.totals eng) with Engine.wall_ms = 0. })
  in
  let ans, st = run Fun.id and ans', st' = run rebuilt in
  check (list (option bool)) "answers" ans' ans;
  check int "hits" st'.Engine.cache_hits st.Engine.cache_hits;
  check int "misses" st'.Engine.cache_misses st.Engine.cache_misses;
  check bool "all counters" true (st = st')

let reset_forgets_remembered_database () =
  let eng = Engine.create () in
  let a = Random_db.positive ~seed:24 ~num_vars:6 in
  let b = Random_db.positive ~seed:25 ~num_vars:6 in
  check int "a first" 0 (Engine.theory_key eng a);
  check int "b second" 1 (Engine.theory_key eng b);
  Engine.reset eng;
  check int "b interned afresh after reset" 0 (Engine.theory_key eng b);
  check int "a next" 1 (Engine.theory_key eng a)

(* --- oracle algorithms through the engine --- *)

(* The paper's oracle signature does not depend on the engine
   configuration: a cached engine returns the baseline's answer with the
   same Σ₂ᵖ query count, within the log bound. *)
let oracle_algorithms_engine_variant () =
  List.iter
    (fun seed ->
      let eng = Engine.create () in
      let base = Gen.baseline () in
      let db = Random_db.positive ~seed ~num_vars:7 in
      let f = Random_db.formula ~seed:(seed + 100) ~num_vars:7 ~depth:3 in
      let d = Oracle_algorithms.gcwa_formula_in base db f in
      let e = Oracle_algorithms.gcwa_formula_in eng db f in
      check bool "gcwa answer agrees" d.Oracle_algorithms.answer
        e.Oracle_algorithms.answer;
      check int "same Σ₂ query count" d.Oracle_algorithms.sigma2_queries
        e.Oracle_algorithms.sigma2_queries;
      check bool "within the log bound" true
        (e.Oracle_algorithms.sigma2_queries
        <= Oracle_algorithms.log_bound e.Oracle_algorithms.p_size);
      let part = Random_db.random_partition ~seed ~num_vars:7 in
      let d = Oracle_algorithms.entails_log_in base db part f in
      let e = Oracle_algorithms.entails_log_in eng db part f in
      check bool "ccwa answer agrees" d.Oracle_algorithms.answer
        e.Oracle_algorithms.answer;
      check int "ccwa same Σ₂ query count" d.Oracle_algorithms.sigma2_queries
        e.Oracle_algorithms.sigma2_queries)
    [ 41; 42; 43 ]

(* --- the registry and its callers' engines --- *)

(* The registry keeps no engine: once a caller drops an engine it asked
   through [infer_literal_in] and a record from [find_in], the next full
   major collection reclaims it. *)
let dropped_engine_is_collectable () =
  let collected = ref false in
  let ask () =
    let eng = Engine.create () in
    Gc.finalise (fun _ -> collected := true) eng;
    let db = Random_db.normal ~seed:31 ~num_vars:5 in
    ignore (Registry.infer_literal_in eng ~sem:"gcwa" db (Lit.Neg 0));
    let s = Option.get (Registry.find_in eng "dsm") in
    ignore (s.Semantics.infer_literal db (Lit.Pos 1))
  in
  (Sys.opaque_identity ask) ();
  Gc.full_major ();
  check bool "engine collected" true !collected

(* Engines A, B, A on the same queries: the same answers, and each
   engine's counters are its own — B's do not move while A works, and A
   ends where an engine that never saw B ends. *)
let interleaved_engines_keep_their_own_counters () =
  let dbs =
    [
      Db.of_string "a. b :- a. c :- b, d.";
      Random_db.with_integrity ~seed:32 ~num_vars:6;
    ]
  in
  let queries eng =
    List.concat_map
      (fun db ->
        List.concat_map
          (fun sem ->
            List.map
              (fun l -> Registry.infer_literal_in eng ~sem db l)
              [ Lit.Pos 0; Lit.Neg 1; Lit.Neg 2 ])
          [ "gcwa"; "ddr"; "dsm"; "perf" ])
      dbs
  in
  let counters eng =
    let strip (s : Engine.stats) = { s with Engine.wall_ms = 0. } in
    (strip (Engine.totals eng), List.map strip (Engine.per_scope eng))
  in
  let a = Engine.create () and b = Engine.create () and solo = Engine.create () in
  let first = queries a in
  let on_b = queries b in
  let b_counters = counters b in
  let second = queries a in
  let solo_answers = queries solo @ queries solo in
  let worked (total, _) =
    total.Engine.fastpath_hits > 0 && total.Engine.oracle_calls > 0
  in
  check bool "B counted its queries" true (worked b_counters);
  check (list bool) "B answers as A" first on_b;
  check (list bool) "A answers alike after B" first second;
  check bool "B unchanged by A" true (counters b = b_counters);
  check (list bool) "A answers as an engine alone" solo_answers (first @ second);
  check bool "A counts as an engine alone" true (counters a = counters solo)

(* A scope whose body raises (a budget trip) still credits its bucket with
   the work done before the trip, and closes: the next query opens a fresh
   top-level scope of its own. *)
let raising_scope_credits_and_closes () =
  let eng = Engine.create ~fastpath:false () in
  (* PHP(5,4) as a database: positive clauses are rules, the rest are
     integrity clauses *)
  let num_vars, cnf = Pigeonhole.unsat_instance 4 in
  let clause c =
    let pos = List.filter_map (function Lit.Pos x -> Some x | Lit.Neg _ -> None) c
    and neg = List.filter_map (function Lit.Neg x -> Some x | Lit.Pos _ -> None) c in
    Clause.make ~head:pos ~pos:neg ~neg:[]
  in
  let db = Db.make ~vocab:(Vocab.of_size num_vars) (List.map clause cnf) in
  let before = Stats.snapshot () in
  let r =
    Ddb_obs.Trace.start ();
    Fun.protect ~finally:Ddb_obs.Trace.stop (fun () ->
        let r =
          Engine.budgeted eng (Ddb_budget.Budget.limits ~conflicts:20 ()) ~sem:"gcwa"
            (fun () -> Registry.infer_literal_in eng ~sem:"gcwa" db (Lit.Neg 0))
        in
        ignore (Registry.has_model_in eng ~sem:"cwa" db);
        r)
  in
  check bool "tripped" true (match r with Engine.Unknown _ -> true | _ -> false);
  let d = Stats.delta before in
  (match Engine.per_scope eng with
  | [ c; g ] ->
    check string "cwa bucket" "cwa" c.Engine.scope;
    check bool "cwa did its own work" true (c.Engine.oracle_calls > 0);
    check string "gcwa bucket" "gcwa" g.Engine.scope;
    check bool "gcwa solved before the trip" true (g.Engine.sat_conflicts > 0);
    check int "every solve credited" d.Stats.sat
      (c.Engine.sat_solve_calls + g.Engine.sat_solve_calls);
    check int "every conflict credited" d.Stats.conflicts
      (c.Engine.sat_conflicts + g.Engine.sat_conflicts);
    check int "gcwa's unknown" 1 g.Engine.unknowns
  | scopes -> failf "expected cwa and gcwa buckets, got %d" (List.length scopes));
  let scope_events =
    List.filter_map
      (fun (_, ev, ph, _) ->
        if String.starts_with ~prefix:"scope." ev then Some (Printf.sprintf "%c %s" ph ev)
        else None)
      (Ddb_obs.Trace.dump ())
  in
  check (list string) "scope spans"
    [ "B scope.gcwa"; "E scope.gcwa"; "B scope.cwa"; "E scope.cwa" ]
    scope_events

(* A ⟨P;Q;Z⟩ record is wrapped afresh per question, and its scope handle
   is interned by name: 10 000 such questions add no scope name to the
   process table and no bucket to the engine.  An engine's bucket array
   only grows to cover a handle's id, so a table that does not grow bounds
   it too. *)
let partition_records_add_no_scope () =
  let eng = Engine.create () in
  let db = Db.of_string "a | b. c :- a. d :- not c." in
  let part = Partition.of_lists 4 ~p:[ 0; 1 ] ~q:[ 2 ] ~z:[ 3 ] in
  let names = [| "ccwa"; "ecwa"; "circ"; "icwa" |] in
  let ask i =
    let name = names.(i mod Array.length names) in
    let s = Option.get (Registry.find_in ~part eng name) in
    if s.Semantics.applicable db then
      ignore (s.Semantics.infer_literal db (Lit.Neg (i mod 4)))
  in
  for i = 0 to 99 do ask i done;
  let interned = Engine.scopes_interned () in
  let buckets () = List.map (fun s -> s.Engine.scope) (Engine.per_scope eng) in
  let before = buckets () in
  check bool "one handle per name" true (Engine.scope "ccwa" == Engine.scope "ccwa");
  for i = 100 to 10_099 do ask i done;
  check int "no scope name interned" interned (Engine.scopes_interned ());
  check (list string) "no bucket added" before (buckets ())

(* A scope opened inside another on the same engine credits the outermost
   one: a DSM question asked inside a [gcwa] scope is GCWA's work, and
   the engine keeps one bucket, equal to its total. *)
let nested_scope_credits_the_outermost () =
  let eng = Engine.create ~fastpath:false () in
  let db = Random_db.with_integrity ~seed:9 ~num_vars:6 in
  let body eng db () =
    List.iter
      (fun x -> ignore (Registry.infer_literal_in eng ~sem:"dsm" db (Lit.Neg x)))
      (List.init (Db.num_vars db) Fun.id)
  in
  Engine.scoped eng (Engine.scope "gcwa") body db ();
  let t = Engine.totals eng in
  check bool "DSM solved" true (t.Engine.sat_solve_calls > 0);
  match Engine.per_scope eng with
  | [ g ] ->
    check string "the outermost bucket" "gcwa" g.Engine.scope;
    check bool "all of the total" true ({ g with Engine.scope = "total" } = t)
  | scopes -> failf "expected one bucket, got %d" (List.length scopes)

(* A warmed fast-path question through [Registry.*_in] allocates for its
   answer only: no record is bound, no closure is made and the scope's
   window is marked in place.  Each of the three questions stays under 24
   minor words (the wall-time sums and the test's own literal are most of
   what is left). *)
let fast_path_query_allocation () =
  let eng = Engine.create () in
  let db = Db.of_string "a. b :- a. c :- b. d :- c, a. e :- f." in
  let f = Formula.Or (Formula.Atom 0, Formula.Not (Formula.Atom 2)) in
  let sems = [| "cwa"; "gcwa"; "ddr"; "pws"; "egcwa"; "dsm" |] in
  let sem i = sems.(i mod Array.length sems) in
  let questions =
    [
      ( "literal",
        fun i ->
          let x = i mod Db.num_vars db in
          let l = if i land 1 = 0 then Lit.Pos x else Lit.Neg x in
          Registry.infer_literal_in eng ~sem:(sem i) db l );
      ("formula", fun i -> Registry.infer_formula_in eng ~sem:(sem i) db f);
      ("exists", fun i -> Registry.has_model_in eng ~sem:(sem i) db);
    ]
  in
  List.iter
    (fun (what, ask) ->
      for i = 0 to 999 do ignore (ask i) done;
      let n = 10_000 in
      let hits0 = (Engine.totals eng).Engine.fastpath_hits in
      let w0 = Gc.minor_words () in
      for i = 0 to n - 1 do ignore (ask i) done;
      let per_query = (Gc.minor_words () -. w0) /. Float.of_int n in
      check int (what ^ ": all fast-path hits") n
        ((Engine.totals eng).Engine.fastpath_hits - hits0);
      if per_query >= 24. then
        failf "%.1f minor words per fast-path %s query (bound 24)" per_query what)
    questions

let suites =
  [
    ( "engine.soundness",
      [
        test_case
          "all four configurations agree with reference_models on every \
           registry semantics"
          `Quick configurations_agree_with_reference;
        test_case "engine primitives match their brute-force definitions" `Quick
          primitive_soundness;
        test_case "repeated queries are answered from the cache" `Quick
          repeat_queries_hit_cache;
        test_case "a failed query's counterexample is a memo hit" `Quick
          counterexample_is_a_memo_hit;
        test_case "PERF/DSM literals: one-shot = uncached, questions 3…2n free"
          `Quick harvest_from_the_second_question;
      ] );
    ( "engine.instrumentation",
      [
        test_case "pigeonhole counters move and are monotone" `Quick
          pigeonhole_counters_monotone;
        test_case "per-scope attribution matches global Stats" `Quick
          engine_stats_match_global;
        test_case "every registry field runs in its record's own scope" `Quick
          record_work_lands_in_its_bucket;
        test_case "stats JSON shape" `Quick stats_json_sanity;
      ] );
    ( "engine.registry",
      [
        test_case "a dropped engine is collectable" `Quick
          dropped_engine_is_collectable;
        test_case "interleaved engines keep their own counters" `Quick
          interleaved_engines_keep_their_own_counters;
        test_case "a raising scope credits its bucket and closes" `Quick
          raising_scope_credits_and_closes;
        test_case "a warmed fast-path query allocates under 24 words" `Quick
          fast_path_query_allocation;
        test_case "⟨P;Q;Z⟩ records add no scope and no bucket" `Quick
          partition_records_add_no_scope;
        test_case "a nested scope credits the outermost one" `Quick
          nested_scope_credits_the_outermost;
      ] );
    ( "engine.keys",
      [
        test_case "theory keys are canonical" `Quick theory_key_canonical;
        test_case "a rebuilt copy of a database gets its key" `Quick
          theory_key_of_rebuilt_copy;
        test_case "alternating databases: same answers and counters as rebuilt copies"
          `Quick alternating_databases_match_rebuilt;
        test_case "reset forgets the remembered database" `Quick
          reset_forgets_remembered_database;
        test_case "oracle algorithms: equal answers and Σ₂ counts per configuration"
          `Quick
          oracle_algorithms_engine_variant;
      ] );
  ]
