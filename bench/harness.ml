open Ddb_logic
open Ddb_db
open Ddb_core
open Ddb_workload

(* The table-regeneration harness: one experiment per cell of the paper's
   Table 1 and Table 2 (semantics × {literal inference, formula inference,
   model existence} × {positive DDBs, DDBs with integrity clauses}).

   For every cell we run the decision procedure on a seeded random family at
   a ladder of universe sizes and report wall-clock time together with the
   oracle-call footprint (SAT calls = NP oracle, Σ₂ queries = Σ₂ᵖ oracle).
   The claimed complexity class from the paper is printed alongside, so the
   measured signature (polynomial growth / O(1) / oracle usage) can be read
   off against it.  Absolute times are ours; the *shape* is the paper's. *)

module Engine = Ddb_engine.Engine

(* The closed-world cells run on the paper's baseline configuration: a
   fresh engine per query, without cache or fast path (one fresh solver
   per oracle question). *)
let base () = Engine.create ~cache:false ~fastpath:false ()

(* The one stopwatch of the bench sections: [f ()]'s value, its wall time
   in ms, and the solver work it did (the [Ddb_sat.Stats] delta, read
   after the clock stops). *)
type 'a timed = { value : 'a; ms : float; work : Ddb_sat.Stats.snapshot }

let timed f =
  let before = Ddb_sat.Stats.snapshot () in
  let t0 = Unix.gettimeofday () in
  let value = f () in
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  { value; ms; work = Ddb_sat.Stats.delta before }

type measurement = {
  n : int;
  time_ms : float;
  sat_calls : float;
  sigma2_calls : float;
}

let repetitions = 3

(* Average over seeded repetitions of [instance seed |> task]. *)
let measure ~n ~instance ~task =
  let samples =
    List.init repetitions (fun seed ->
        let input = instance ~seed ~num_vars:n in
        timed (fun () -> task input))
  in
  let avg f =
    List.fold_left (fun acc s -> acc +. f s) 0. samples
    /. float_of_int repetitions
  in
  {
    n;
    time_ms = avg (fun t -> t.ms);
    sat_calls = avg (fun t -> float_of_int t.work.Ddb_sat.Stats.sat);
    sigma2_calls = avg (fun t -> float_of_int t.work.Ddb_sat.Stats.sigma2);
  }

type cell = {
  entry : Classes.entry; (* the claimed cell of Table 1/2 it measures *)
  sizes : int list;
  instance : seed:int -> num_vars:int -> Db.t;
  run : Db.t -> bool;
}

(* Negative-literal query on a mid-universe atom (closed-world queries ask
   for negative information; see EXPERIMENTS.md). *)
let neg_literal db = Lit.Neg (Db.num_vars db / 2)

let random_query db =
  Random_db.formula ~seed:(Db.num_vars db) ~num_vars:(Db.num_vars db) ~depth:2

(* Each rung (all its seeded repetitions) runs under this wall deadline, so
   one exploding rung cannot stall a table: it prints [timeout] and the
   ladder goes on with the next size. *)
let rung_deadline_ms = 10_000.

type rung = Measured of measurement | Timeout of int

let run_cell cell =
  List.map
    (fun n ->
      match
        Ddb_budget.Budget.run
          (Ddb_budget.Budget.limits ~wall_ms:rung_deadline_ms ())
          (fun () -> measure ~n ~instance:cell.instance ~task:cell.run)
      with
      | Ok m -> Measured m
      | Error _ -> Timeout n)
    cell.sizes

let pp_rung ppf = function
  | Measured m ->
    Fmt.pf ppf "n=%-4d %8.2fms %6.0f sat %4.0f s2" m.n m.time_ms m.sat_calls
      m.sigma2_calls
  | Timeout n ->
    Fmt.pf ppf "n=%-4d  timeout (over %.0f s)" n (rung_deadline_ms /. 1000.)

let print_cell { entry = e; _ } results =
  Fmt.pr "  %-6s %-18s  claimed: %-40s@." e.Classes.semantics
    (Classes.task_to_string e.Classes.task)
    (Classes.complexity_to_string e.Classes.claimed
    ^ if e.Classes.provenance = Classes.Reconstructed then " (reconstructed)"
      else "");
  Fmt.pr "    @[<v>%a@]@." (Fmt.list ~sep:Fmt.cut pp_rung) results

(* ---- the cells ----

   A row is (semantics, instance family, literal/formula/exists sizes).
   Each of its three cells runs the registry record on [base ()], except
   where the paper's algorithm is a different procedure ([paper_cell]). *)

let medium = [ 10; 20; 40; 80 ]
let large = [ 20; 40; 80; 160 ]

(* Partition used for the CCWA/ECWA inference cells: minimize the even
   atoms, fix a quarter, float a quarter — a deterministic stand-in for
   "given ⟨P;Q;Z⟩". *)
let bench_partition num_vars =
  let all = List.init num_vars Fun.id in
  let p = List.filter (fun x -> x mod 2 = 0) all in
  let q = List.filter (fun x -> x mod 4 = 1) all in
  let z = List.filter (fun x -> x mod 4 = 3) all in
  Partition.of_lists num_vars ~p ~q ~z

let stratified_instance ~seed ~num_vars =
  Random_db.stratified ~seed ~num_vars ()

(* The cells whose procedure is not the registry record's: the
   P^Σ₂ᵖ[O(log n)] binary search for GCWA/CCWA formulas. *)
let paper_cell (e : Classes.entry) : (Db.t -> bool) option =
  let answer r = r.Oracle_algorithms.answer in
  match (e.semantics, e.task) with
  | "gcwa", Classes.Formula ->
    Some (fun db ->
        answer (Oracle_algorithms.gcwa_formula_in (base ()) db (random_query db)))
  | "ccwa", Classes.Formula ->
    Some (fun db ->
        answer
          (Oracle_algorithms.entails_log_in (base ()) db
             (bench_partition (Db.num_vars db))
             (random_query db)))
  | _ -> None

(* CCWA and ECWA inference is asked at [bench_partition]; every other
   cell, existence included, at the record's ⟨V;∅;∅⟩. *)
let registry_cell sem task db =
  let part =
    if (sem = "ccwa" || sem = "ecwa") && task <> Classes.Exists then
      Some (bench_partition (Db.num_vars db))
    else None
  in
  let s = Option.get (Registry.find ?part sem) in
  match task with
  | Classes.Literal -> s.Semantics.infer_literal (base ()) db (neg_literal db)
  | Classes.Formula -> s.Semantics.infer_formula (base ()) db (random_query db)
  | Classes.Exists -> s.Semantics.has_model (base ()) db

(* One cell per claimed cell of the setting, in [Classes] order, sized
   and fed by its semantics' row; fails unless the rows are one per
   claimed semantics. *)
let cells_of setting rows =
  let entries =
    List.filter (fun (e : Classes.entry) -> e.setting = setting) Classes.claimed
  in
  let claimed sem = List.exists (fun e -> e.Classes.semantics = sem) entries in
  if List.exists (fun (sem, _, _) -> not (claimed sem)) rows then
    failwith "Harness: a table row has no claimed cells";
  List.map
    (fun (e : Classes.entry) ->
      match List.filter (fun (sem, _, _) -> sem = e.semantics) rows with
      | [ (_, instance, (literal, formula, exists)) ] ->
        let sizes =
          match e.task with
          | Classes.Literal -> literal
          | Classes.Formula -> formula
          | Classes.Exists -> exists
        in
        let run =
          match paper_cell e with
          | Some run -> run
          | None -> registry_cell e.semantics e.task
        in
        { entry = e; sizes; instance; run }
      | _ -> failwith ("Harness: no single table row for " ^ e.semantics))
    entries

let table1_cells =
  let pos = Random_db.positive in
  cells_of Classes.Table1
    [
      ("gcwa", pos, (medium, medium, large));
      ("ddr", pos, (large, large, large));
      ("pws", pos, (large, medium, large));
      ("egcwa", pos, (medium, medium, large));
      (* the support computation under a nontrivial partition is the
         hardest oracle in the suite; CCWA formulas at n = 80 cost tens of
         seconds *)
      ("ccwa", pos, (medium, [ 10; 20; 40 ], large));
      ("ecwa", pos, (medium, medium, large));
      (* positive databases are trivially stratified *)
      ("icwa", pos, (medium, medium, large));
      ("perf", pos, (medium, medium, medium));
      ("dsm", pos, (medium, medium, large));
      ("pdsm", pos, (medium, medium, medium));
    ]

let table2_cells =
  let ic = Random_db.with_integrity and nrm = Random_db.normal in
  cells_of Classes.Table2
    [
      ("gcwa", ic, (medium, medium, large));
      ("ddr", ic, (large, large, large));
      ("pws", ic, (medium, medium, medium));
      ("egcwa", ic, (medium, medium, large));
      ("ccwa", ic, (medium, medium, large));
      ("ecwa", ic, (medium, medium, large));
      ("icwa", stratified_instance, (medium, medium, large));
      ("perf", nrm, (medium, medium, medium));
      ("dsm", nrm, (medium, medium, medium));
      (* a normal database at n = 40 costs PDSM seconds per rung *)
      ("pdsm", nrm, ([ 10; 20; 30 ], [ 10; 20; 30 ], [ 10; 20; 30 ]));
    ]

module Trace = Ddb_obs.Trace

(* Cell → trace-file stem: "ccwa" + "literal inference" → "ccwa_literal". *)
let sanitize s =
  String.map
    (fun c ->
      if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') then c else '_')
    (String.lowercase_ascii s)

let cell_trace_file ~prefix ~tag cell =
  Printf.sprintf "%s_%s_%s_%s.json" prefix tag cell.entry.Classes.semantics
    (sanitize (Classes.task_to_string cell.entry.Classes.task))

(* Cells are measured through the domain pool (one cell per task; each
   cell's seeded instances and solver state live entirely in the worker
   that runs it, and the DLS stats counters keep the per-cell oracle
   deltas exact).  Output is printed after the join, in cell order, so it
   is identical for every job count; jobs:1 is the historical sequential
   path, and prints each cell as soon as it finishes.  Note that
   wall-clock times measured with jobs > 1 on a loaded or small machine
   include scheduling noise — use jobs:1 when the ladder shape itself is
   the result.

   With [trace_prefix] the cells run sequentially instead (a per-cell
   trace interleaved across workers would be misattributed), one Chrome
   trace-event JSON per ladder cell under
   [<prefix>_<table>_<semantics>_<task>.json]. *)
let print_table ?(jobs = 1) ?trace_prefix ~tag ~title cells =
  Fmt.pr "@.=== %s ===@." title;
  Fmt.pr "  (time averaged over %d seeded instances; 'sat' = NP-oracle calls, 's2' = Sigma2-oracle queries)@."
    repetitions;
  (match trace_prefix with
  | None when jobs <= 1 -> List.iter (fun cell -> print_cell cell (run_cell cell)) cells
  | None ->
    Fmt.pr "  (cells measured across %d worker domains)@." jobs;
    List.iter2 print_cell cells
      (Ddb_parallel.Parallel.map ~jobs run_cell cells)
  | Some prefix ->
    Fmt.pr "  (tracing: sequential run, one trace file per cell)@.";
    List.iter
      (fun cell ->
        Trace.start ();
        let r = run_cell cell in
        Trace.stop ();
        Trace.write_file (cell_trace_file ~prefix ~tag cell);
        print_cell cell r)
      cells);
  match trace_prefix with
  | Some prefix ->
    Fmt.pr "  wrote %d trace file(s) under %s_%s_*.json@."
      (List.length cells) prefix tag
  | None -> ()

let table1 ?jobs ?trace_prefix () =
  print_table ?jobs ?trace_prefix ~tag:"table1"
    ~title:"Table 1: positive propositional DDBs (no integrity clauses, no negation)"
    table1_cells

let table2 ?jobs ?trace_prefix () =
  print_table ?jobs ?trace_prefix ~tag:"table2"
    ~title:"Table 2: propositional DDBs (with integrity clauses)"
    table2_cells

(* ---- engine ablation: memoizing oracle engine vs the uncached one ----

   Same seeded workload run twice, once through a caching engine and once
   through a cache-disabled one (the same oracle procedures on a fresh
   per-op solver, without memo tables).  The workload is the closed-world query pattern the engine is
   built for: a full ± literal sweep plus a few formula queries per
   database, repeated — exactly what a query front end does.  We report the
   total SAT solve calls either way plus the cached engine's hit counts,
   and emit the engine's stats record as JSON (schema in EXPERIMENTS.md). *)

let engine_workload (s : Semantics.t) eng db =
  let n = Db.num_vars db in
  for _rep = 1 to 2 do
    for x = 0 to n - 1 do
      ignore (s.Semantics.infer_literal eng db (Lit.Neg x));
      ignore (s.Semantics.infer_literal eng db (Lit.Pos x))
    done;
    ignore (s.Semantics.infer_formula eng db (random_query db));
    ignore (s.Semantics.has_model eng db)
  done

(* The cached closed-world workload over every semantics, on a fresh
   engine — the timing target for the observability-overhead check. *)
let full_engine_workload () =
  let eng = Engine.create ~cache:true () in
  List.iter
    (fun s -> engine_workload s eng (Random_db.positive ~seed:7 ~num_vars:10))
    Registry.all

(* Every probe the obs layer added to the hot paths is gated on one flag,
   so with tracing off the instrumented build should time like an
   uninstrumented one.  We cannot rerun the pre-instrumentation binary
   here; what we CAN measure is (a) run-to-run noise of the disabled path
   (two identical disabled runs — their delta bounds what a ≤2% budget
   even means on this machine) and (b) the cost of actually turning
   tracing on.  Reported and exported with the section JSON. *)
let observability_overhead ?trace_prefix () =
  let () = ignore (timed full_engine_workload) (* warm-up: code + allocator *) in
  let disabled1 = (timed full_engine_workload).ms in
  let disabled2 = (timed full_engine_workload).ms in
  Trace.start ();
  let traced_ms = (timed full_engine_workload).ms in
  Trace.stop ();
  let traced_events = Trace.events_recorded () in
  (match trace_prefix with
  | Some p -> Trace.write_file (p ^ "_engine.json")
  | None -> ());
  let base = Float.min disabled1 disabled2 in
  let pct x = if base > 0. then (x -. base) /. base *. 100. else 0. in
  Fmt.pr "@.  observability overhead (full cached workload):@.";
  Fmt.pr "    probes disabled: %8.2fms / %8.2fms  (run-to-run delta %+.1f%%)@."
    disabled1 disabled2
    (pct (Float.max disabled1 disabled2));
  Fmt.pr "    trace enabled:   %8.2fms  (%+.1f%% vs disabled; %d events)@."
    traced_ms (pct traced_ms) traced_events;
  (match trace_prefix with
  | Some p -> Fmt.pr "    wrote %s_engine.json@." p
  | None -> ());
  Printf.sprintf
    {|{"disabled_ms":[%.3f,%.3f],"traced_ms":%.3f,"traced_events":%d}|}
    disabled1 disabled2 traced_ms traced_events

(* Prints the comparison table and returns the section as JSON (collected
   by main.exe --json). *)
let engine_comparison ?trace_prefix () =
  Fmt.pr "@.=== Engine ablation: memoizing oracle engine (cached vs uncached) ===@.";
  Fmt.pr
    "  (per semantics: 2 passes of a full ± literal sweep + formula query on \
     one seeded DB; 'sat' = total SAT solve calls)@.";
  let cached = Engine.create ~cache:true () in
  let direct = Engine.create ~cache:false () in
  let db = Random_db.positive ~seed:7 ~num_vars:10 in
  let sat_on eng s = (timed (fun () -> engine_workload s eng db)).work.sat in
  let rows =
    List.map
      (fun (s : Semantics.t) ->
        let sat_direct = sat_on direct s in
        let sat_cached = sat_on cached s in
        (s.Semantics.name, sat_direct, sat_cached))
      Registry.all
  in
  let wins =
    List.length (List.filter (fun (_, d, c) -> c < d) rows)
  in
  List.iter
    (fun (name, sat_direct, sat_cached) ->
      Fmt.pr "  %-6s uncached: %6d sat   cached: %6d sat   (%.1fx)@." name
        sat_direct sat_cached
        (if sat_cached > 0 then
           float_of_int sat_direct /. float_of_int sat_cached
         else Float.infinity))
    rows;
  let t = Engine.totals cached in
  Fmt.pr "  cached engine: %a@." Engine.pp_stats t;
  Fmt.pr "  semantics with fewer SAT calls than the uncached engine: %d/%d@." wins
    (List.length Registry.names);
  Fmt.pr "@.--- engine stats JSON ---@.%s@." (Engine.stats_json cached);
  let overhead_json = observability_overhead ?trace_prefix () in
  Printf.sprintf
    {|{"per_semantics":[%s],"cached_wins":%d,"observability":%s,"engine":%s}|}
    (String.concat ","
       (List.map
          (fun (name, d, c) ->
            Printf.sprintf {|{"name":%S,"sat_direct":%d,"sat_cached":%d}|}
              name d c)
          rows))
    wins overhead_json (Engine.stats_json cached)

(* Shared "meta" header for the machine-readable outputs, so every
   BENCH_*.json is self-describing.  No timestamp on purpose: outputs
   stay byte-comparable across runs with the same seed/jobs.
   [exhausted_cells] is the process-wide count of budget trips so far
   (zero unless a budgeted sweep degraded some cell). *)
let meta_json ~seed ~jobs ~sems =
  Printf.sprintf
    {|{"schema_version":3,"generator":"bench/main.exe","seed":%d,"jobs":%d,"semantics":[%s],"exhausted_cells":%d}|}
    seed jobs
    (String.concat "," (List.map (Printf.sprintf "%S") sems))
    (Ddb_budget.Budget.exhausted_total ())

(* ---- fastpath: tractable-fragment dispatch vs the generic oracle ----

   The full ± literal sweep plus an existence check, on seeded instances of
   the two tractable workload families the dispatcher targets (definite-Horn
   databases for the least-model cells, stratified normal databases for the
   perfect-model cells), run twice per instance: once on a fast-path engine
   and once on an ablation engine created with ~fastpath:false (the exact
   pre-dispatch behaviour).  Answers are asserted identical; the JSON
   records per-family wall times, the speedup, and the engines' dispatch
   counters (hits must be positive on these families, by construction). *)

let fastpath_bench () =
  Fmt.pr "@.=== Fast paths: fragment dispatch vs generic oracle ===@.";
  let instances = 6 and num_vars = 20 in
  let families =
    [
      ( "definite",
        List.init instances (fun i ->
            Random_db.definite ~seed:(200 + i) ~num_vars ()) );
      ( "stratified_normal",
        List.init instances (fun i ->
            Random_db.stratified ~head_max:1 ~seed:(300 + i) ~num_vars ()) );
    ]
  in
  let sweep eng dbs =
    List.map
      (fun db ->
        let sems =
          List.filter (( <> ) "pdsm") (Registry.applicable_names db)
        in
        List.map
          (fun sem ->
            let lits =
              List.concat_map
                (fun x -> [ Lit.Neg x; Lit.Pos x ])
                (List.init (Db.num_vars db) Fun.id)
            in
            ( sem,
              Registry.has_model_in eng ~sem db,
              List.map (fun l -> Registry.infer_literal_in eng ~sem db l) lits
            ))
          sems)
      dbs
  in
  let rows =
    List.map
      (fun (name, dbs) ->
        let fast_eng = Engine.create () in
        let generic_eng = Engine.create ~fastpath:false () in
        let fast = timed (fun () -> sweep fast_eng dbs) in
        let generic = timed (fun () -> sweep generic_eng dbs) in
        let fast_ms = fast.ms and generic_ms = generic.ms in
        if fast.value <> generic.value then
          failwith ("fastpath_bench: answers diverged on " ^ name);
        let t = Engine.totals fast_eng in
        let speedup =
          if fast_ms > 0. then generic_ms /. fast_ms else Float.infinity
        in
        Fmt.pr
          "  %-18s fast: %8.2fms   generic: %8.2fms   (%.1fx)   hits: %d  \
           misses: %d@."
          name fast_ms generic_ms speedup t.Engine.fastpath_hits
          t.Engine.fastpath_misses;
        if t.Engine.fastpath_hits = 0 then
          failwith ("fastpath_bench: no fast-path hits on " ^ name);
        (name, fast_ms, generic_ms, speedup, t))
      families
  in
  let json =
    Printf.sprintf {|{"meta":%s,"workload":{"instances":%d,"num_vars":%d},"families":[%s]}|}
      (meta_json ~seed:200 ~jobs:1 ~sems:Registry.names)
      instances num_vars
      (String.concat ","
         (List.map
            (fun (name, fast_ms, generic_ms, speedup, t) ->
              Printf.sprintf
                {|{"name":%S,"wall_ms_fastpath":%.3f,"wall_ms_generic":%.3f,"speedup":%.3f,"fastpath_hits":%d,"fastpath_misses":%d,"classifications":%d,"identical_answers":true}|}
                name fast_ms generic_ms speedup t.Engine.fastpath_hits
                t.Engine.fastpath_misses t.Engine.classifications)
            rows))
  in
  let oc = open_out "BENCH_fastpath.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Fmt.pr "  wrote BENCH_fastpath.json@.";
  json
