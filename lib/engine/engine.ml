open Ddb_logic
open Ddb_sat
open Ddb_db

(* The shared memoizing oracle engine.

   Every semantics of the paper bottoms out in the same primitive oracle
   queries — satisfiability of the (possibly augmented) database, minimal-
   model checks, support-set computation, minimal-model enumeration.  The
   semantics modules in lib/core route every such query through this
   engine:

     - theories are *canonicalized* (clauses sorted and deduplicated) and
       hash-consed into integer keys, so syntactically shuffled copies of
       the same database share one cache line;
     - each theory key fronts a single incremental {!Solver.t}; entailment
       and consistency queries run on it under assumptions (closed-world
       literals, the Tseitin output of a negated query) instead of
       rebuilding a solver per query, so learned clauses accumulate;
     - results of the expensive oracles (support sets, minimal-model
       enumerations, entailment answers, per-semantics decision answers)
       are memoized per canonical key;
     - every operation is instrumented: oracle calls, cache hits/misses,
       and — through {!Stats} — SAT solve calls, conflicts, decisions,
       propagations and wall time, attributable per semantics via
       {!scoped}.

   Every op has one body.  An engine created with [~cache:false] runs the
   same body but skips the memo tables and the interning, and builds a fresh
   per-op theory state instead of reusing the shared solver: one oracle
   question, one fresh solver — the paper's algorithms as stated, and the
   baseline configuration the differential tests and the bench harness
   compare against. *)

(* ------------------------------------------------------------------ *)
(* Counters and stats                                                  *)

type counters = {
  mutable oracle_calls : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable sat_calls : int;
  mutable sigma2_calls : int;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable fastpath_hits : int;
  mutable fastpath_misses : int;
  mutable classifications : int;
  mutable unknowns : int;
  mutable time_ms : float;
}

let fresh_counters () =
  {
    oracle_calls = 0;
    cache_hits = 0;
    cache_misses = 0;
    sat_calls = 0;
    sigma2_calls = 0;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    fastpath_hits = 0;
    fastpath_misses = 0;
    classifications = 0;
    unknowns = 0;
    time_ms = 0.;
  }

let add_snapshot c (d : Stats.snapshot) dt =
  c.sat_calls <- c.sat_calls + d.Stats.sat;
  c.sigma2_calls <- c.sigma2_calls + d.Stats.sigma2;
  c.conflicts <- c.conflicts + d.Stats.conflicts;
  c.decisions <- c.decisions + d.Stats.decisions;
  c.propagations <- c.propagations + d.Stats.propagations;
  c.time_ms <- c.time_ms +. dt

(* ------------------------------------------------------------------ *)
(* Canonical theory keys                                               *)

(* A theory is keyed by its universe size and its canonicalized clause set:
   each clause's atoms tagged by position (head, positive body, negative
   body) and sorted, clauses sorted and deduped.  Syntactic permutations of
   the same database therefore share a key.  Rules with the same classical
   clause but different structure (a ∨ b versus a ← not b) do not: the
   stable and perfect model semantics, and the fragment classifier, tell
   them apart. *)
type raw_key = int * int list list

let canonical_of_db db : raw_key =
  let clause c =
    List.sort_uniq Int.compare
      (List.map (fun x -> 3 * x) (Clause.head c)
      @ List.map (fun x -> (3 * x) + 1) (Clause.body_pos c)
      @ List.map (fun x -> (3 * x) + 2) (Clause.body_neg c))
  in
  let clauses =
    List.sort_uniq (List.compare Int.compare)
      (List.map clause (Db.clauses db))
  in
  (Db.num_vars db, clauses)

(* Per-theory shared solver: the theory clauses plus, over time, Tseitin
   definitions for queried formulas (activated only by assuming their
   output literal — definitional clauses never constrain the original
   atoms) and the solver's own learned clauses. *)
type theory_state = {
  solver : Solver.t;
  mutable next_var : int;
  (* Tseitin output literal per already-encoded formula, so a repeated
     query re-uses its encoding instead of growing the solver. *)
  encoded : (Formula.t, Lit.t) Hashtbl.t;
}

(* Memo keys for the oracle caches.  Structural equality on formulas and
   int lists; partitions are keyed by their (P, Q) member lists. *)
type qkey = {
  theory : int;
  op : string;
  negs : int list;
  sect : int list * int list;
  form : Formula.t option;
  arg : int;
}

let qkey ?(negs = []) ?part ?form ?(arg = -1) theory op =
  let sect =
    match part with
    | None -> ([], [])
    | Some p -> (Interp.to_list (Partition.p p), Interp.to_list (Partition.q p))
  in
  { theory; op; negs; sect; form; arg }

type t = {
  cache : bool;
  (* Fragment fast-path dispatch gate: with it off, the dispatch layer in
     lib/core routes every query through the generic oracle path — the
     ablation baseline of BENCH_fastpath.json and `ddbtool --no-fastpath`. *)
  fastpath : bool;
  (* Latency histograms + hit/miss counters per oracle kind.  [profile]
     gates their upkeep exactly like the trace flag gates spans: with both
     off every op body pays one boolean load. *)
  profile : bool;
  metrics : Ddb_obs.Metrics.t;
  total : counters;
  per_scope : (string, counters) Hashtbl.t;
  mutable scope : (string * counters) option;
  keys : (raw_key, int) Hashtbl.t;
  mutable next_key : int;
  solvers : (int, theory_state) Hashtbl.t;
  bools : (qkey, bool) Hashtbl.t;
  interps : (qkey, Interp.t) Hashtbl.t;
  (* Witness searches: the model the solve found, or [None]. *)
  witnesses : (qkey, Interp.t option) Hashtbl.t;
  model_lists : (qkey, Interp.t list) Hashtbl.t;
  (* One fragment classification (plus its lazily computed canonical
     objects) per hash-consed theory. *)
  frags : (int, Ddb_frag.Frag.info) Hashtbl.t;
}

let create ?(cache = true) ?(fastpath = true) ?(profile = false) () =
  {
    cache;
    fastpath;
    profile;
    metrics = Ddb_obs.Metrics.create ();
    total = fresh_counters ();
    per_scope = Hashtbl.create 16;
    scope = None;
    keys = Hashtbl.create 64;
    next_key = 0;
    solvers = Hashtbl.create 64;
    bools = Hashtbl.create 256;
    interps = Hashtbl.create 64;
    witnesses = Hashtbl.create 256;
    model_lists = Hashtbl.create 64;
    frags = Hashtbl.create 64;
  }

let cache_enabled t = t.cache
let fastpath_enabled t = t.fastpath
let metrics t = t.metrics
let metrics_json t = Ddb_obs.Metrics.to_json t.metrics

let merged_metrics_json engines =
  Ddb_obs.Metrics.to_json (Ddb_obs.Metrics.merge (List.map metrics engines))

let reset t =
  Ddb_obs.Metrics.clear t.metrics;
  Hashtbl.reset t.per_scope;
  t.scope <- None;
  Hashtbl.reset t.keys;
  t.next_key <- 0;
  Hashtbl.reset t.solvers;
  Hashtbl.reset t.bools;
  Hashtbl.reset t.interps;
  Hashtbl.reset t.witnesses;
  Hashtbl.reset t.model_lists;
  Hashtbl.reset t.frags;
  let c = t.total in
  c.oracle_calls <- 0;
  c.cache_hits <- 0;
  c.cache_misses <- 0;
  c.sat_calls <- 0;
  c.sigma2_calls <- 0;
  c.conflicts <- 0;
  c.decisions <- 0;
  c.propagations <- 0;
  c.fastpath_hits <- 0;
  c.fastpath_misses <- 0;
  c.classifications <- 0;
  c.unknowns <- 0;
  c.time_ms <- 0.

let theory_key t db =
  let raw = canonical_of_db db in
  match Hashtbl.find_opt t.keys raw with
  | Some id -> id
  | None ->
    let id = t.next_key in
    t.next_key <- id + 1;
    Hashtbl.add t.keys raw id;
    id

let theory_state t db key =
  match Hashtbl.find_opt t.solvers key with
  | Some st -> st
  | None ->
    let st =
      {
        solver = Db.solver db;
        next_var = Db.num_vars db;
        encoded = Hashtbl.create 16;
      }
    in
    Hashtbl.add t.solvers key st;
    st

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)

let bump f t =
  f t.total;
  match t.scope with None -> () | Some (_, c) -> f c

let tick t =
  bump (fun c -> c.oracle_calls <- c.oracle_calls + 1) t;
  (* One logical budget tick per engine oracle op — also the hook the
     deterministic fault injector counts down on. *)
  Ddb_budget.Budget.on_oracle_op ()
let hit t = bump (fun c -> c.cache_hits <- c.cache_hits + 1) t
let miss t = bump (fun c -> c.cache_misses <- c.cache_misses + 1) t

let scope_counters t name =
  match Hashtbl.find_opt t.per_scope name with
  | Some c -> c
  | None ->
    let c = fresh_counters () in
    Hashtbl.add t.per_scope name c;
    c

let n_theory = Ddb_obs.Trace.name "theory"
let n_cache_hit = Ddb_obs.Trace.name "cache_hit"
let n_semantics = Ddb_obs.Trace.name "semantics"

(* Wrap one oracle op.  Off (no profiling, no trace): a single boolean
   test before [f].  On: a span named [engine.<op>] carrying the
   hash-consed theory key and whether the memo answered, plus a latency
   observation and hit/miss counters in the engine's metrics registry.
   The hit attribute is read off the cache_hits delta, so it reflects the
   op's own memo lookup (nested op spans carry their own attribute). *)
let instrumented t ~op db f =
  if not (t.profile || Ddb_obs.Trace.enabled ()) then f ()
  else begin
    let open Ddb_obs.Trace in
    let traced = enabled () in
    let span = name ("engine." ^ op) in
    (if traced then
       let theory = if t.cache then theory_key t db else -1 in
       begin_args span
         (if theory >= 0 then [ (n_theory, Int theory) ] else []));
    let hits0 = t.total.cache_hits in
    let t0 = metric_now () in
    let finished = ref false in
    Fun.protect
      ~finally:(fun () -> if traced && not !finished then end_ span)
      (fun () ->
        let r = f () in
        finished := true;
        let hit = t.total.cache_hits > hits0 in
        if t.profile then begin
          Ddb_obs.Metrics.observe t.metrics ("engine." ^ op)
            (metric_now () -. t0);
          Ddb_obs.Metrics.incr_counter t.metrics
            ("engine." ^ op ^ if hit then ".hits" else ".misses")
        end;
        if traced then end_args span [ (n_cache_hit, Bool hit) ];
        r)
  end

(* Run [f] attributing solver work and wall time to [name].  Nested scopes
   keep attributing to the outermost one (a semantics calling into shared
   machinery is still that semantics' work).  Under tracing, the outermost
   scope is also a top-level [scope.<name>] span — the per-semantics lane
   the oracle-op spans nest under. *)
let scoped t name f =
  match t.scope with
  | Some _ -> f ()
  | None ->
    let traced = Ddb_obs.Trace.enabled () in
    if traced then
      Ddb_obs.Trace.begin_args
        (Ddb_obs.Trace.name ("scope." ^ name))
        [ (n_semantics, Ddb_obs.Trace.Str name) ];
    let c = scope_counters t name in
    t.scope <- Some (name, c);
    let before = Stats.snapshot () in
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        t.scope <- None;
        let d = Stats.delta before in
        let dt = (Unix.gettimeofday () -. t0) *. 1000. in
        add_snapshot c d dt;
        add_snapshot t.total d dt;
        if traced then Ddb_obs.Trace.end_ (Ddb_obs.Trace.name ("scope." ^ name)))
      f

(* ------------------------------------------------------------------ *)
(* Memoization plumbing                                                *)

(* Per-op theory state for uncached engines: the same shape as the
   interned one, built for this op alone and dropped after it. *)
let fresh_state db =
  { solver = Db.solver db; next_var = Db.num_vars db; encoded = Hashtbl.create 4 }

(* The one place the cache flag is read by the oracle ops.  A cached engine
   interns the theory, answers repeats from [tbl] under [mk key], and hands
   [compute] the theory's shared solver state on a miss.  An uncached engine
   skips the interning and the table and hands [compute] a fresh per-op
   state.  [compute] forces the state only if it needs a solver. *)
let memo t tbl db mk compute =
  if t.cache then begin
    let key = theory_key t db in
    let k = mk key in
    match Hashtbl.find_opt tbl k with
    | Some v ->
      hit t;
      v
    | None ->
      miss t;
      let v = compute (fun () -> theory_state t db key) in
      Hashtbl.add tbl k v;
      v
  end
  else compute (fun () -> fresh_state db)

(* The Tseitin output literal for [f] on a theory state: encoded once,
   activated per query by assuming it.  Definitional clauses only relate
   fresh auxiliary variables to the original atoms, so adding them
   permanently preserves the solver's theory. *)
let encoded_formula st f =
  match Hashtbl.find_opt st.encoded f with
  | Some out -> out
  | None ->
    let clauses, next', out = Cnf.tseitin ~next_var:st.next_var f in
    Solver.ensure_vars st.solver next';
    List.iter (Solver.add_clause st.solver) clauses;
    st.next_var <- next';
    Hashtbl.add st.encoded f out;
    out

let neg_assumptions negs = Interp.fold (fun x acc -> Lit.Neg x :: acc) negs []

let solve_sat ?assumptions st =
  match Solver.solve ?assumptions st.solver with
  | Solver.Sat -> true
  | Solver.Unsat -> false

(* ------------------------------------------------------------------ *)
(* Public oracle operations                                            *)

(* DB consistency: one SAT call. *)
let sat t db =
  tick t;
  instrumented t ~op:"sat" db (fun () ->
      memo t t.bools db (fun key -> qkey key "sat") (fun st ->
          solve_sat (st ())))

(* DB ∪ {¬x : x ∈ negs} has a model: negation set as assumptions. *)
let augmented_has_model t db negs =
  tick t;
  instrumented t ~op:"aug_sat" db (fun () ->
      memo t t.bools db
        (fun key -> qkey ~negs:(Interp.to_list negs) key "aug_sat")
        (fun st -> solve_sat ~assumptions:(neg_assumptions negs) (st ())))

(* A model of DB ∪ {¬x : x ∈ negs} satisfying F: assume the Tseitin output
   of F plus the negation literals, and keep the model the solve finds.  It
   is a brave witness for F and a counterexample to the cautious query ¬F,
   so both read the same memo entry.  The op keeps its entailment name. *)
let augmented_witness t db negs f =
  tick t;
  let n = max (Db.num_vars db) (Formula.max_atom f + 1) in
  let db = Db.with_universe db n in
  instrumented t ~op:"aug_entails" db (fun () ->
      memo t t.witnesses db
        (fun key -> qkey ~negs:(Interp.to_list negs) ~form:f key "aug_entails")
        (fun st ->
          let st = st () in
          let out = encoded_formula st f in
          if solve_sat ~assumptions:(out :: neg_assumptions negs) st then
            Some (Solver.model ~universe:n st.solver)
          else None))

(* DB ∪ {¬x : x ∈ negs} ⊨ F: no model of the augmented theory satisfies ¬F. *)
let augmented_entails t db negs f =
  Option.is_none (augmented_witness t db negs (Formula.not_ f))

(* The support set S = {x ∈ P : x true in some (P;Z)-minimal model}, grown
   by repeated minimal-model queries: each round asks for a minimal model
   containing a not-yet-supported P-atom, so at most |P| + 1 rounds (usually
   far fewer: one round can add many atoms).  The closed-world family's
   central object, and the engine's biggest cache win: keyed by
   (theory, P, Q). *)
let support_set_of db part =
  let theory = Db.theory db in
  let p = Partition.p part in
  let rec grow s =
    let missing = Interp.diff p s in
    if Interp.is_empty missing then s
    else begin
      let want_new =
        [ Interp.fold (fun x acc -> Lit.Pos x :: acc) missing [] ]
      in
      match Minimal.find_minimal_such_that ~extra:want_new theory part with
      | None -> s
      | Some m -> grow (Interp.union s (Interp.inter m p))
    end
  in
  grow (Interp.empty (Db.num_vars db))

let support_set t db part =
  tick t;
  instrumented t ~op:"support" db (fun () ->
      memo t t.interps db (fun key -> qkey ~part key "support") (fun _ ->
          support_set_of db part))

let negated_atoms t db part =
  Interp.diff (Partition.p part) (support_set t db part)

(* Is x true in some (P;Z)-minimal model?  Cached engines answer from the
   memoized support set; uncached engines issue the paper's single
   constrained minimal-model query (one Σ₂ᵖ-style question for GCWA/CCWA
   ¬x).  For x ∈ P the two agree by definition of the support set. *)
let in_some_minimal t db part x =
  if t.cache then Interp.mem (support_set t db part) x
  else begin
    tick t;
    instrumented t ~op:"in_some_minimal" db (fun () ->
        Option.is_some
          (Minimal.find_minimal_such_that
             ~extra:[ [ Lit.Pos x ] ]
             (Db.theory db) part))
  end

(* All ⊆-minimal models (total partition). *)
let minimal_models ?limit ?truncated t db =
  tick t;
  instrumented t ~op:"minimal_models" db (fun () ->
      match limit with
      | Some _ ->
        (* limited enumerations are cheap and caller-specific: never cached *)
        Minimal.all_minimal ?limit ?truncated (Db.theory db)
      | None ->
        memo t t.model_lists db (fun key -> qkey key "minimal_models")
          (fun _ -> Minimal.all_minimal (Db.theory db)))

(* A (P;Z)-minimal model satisfying F — the ECWA/EGCWA witness, memoized
   like [augmented_witness] and under the entailment op's name. *)
let minimal_witness ?part t db f =
  tick t;
  let n = max (Db.num_vars db) (Formula.max_atom f + 1) in
  let db = Db.with_universe db n in
  let part = match part with Some p -> p | None -> Partition.minimize_all n in
  instrumented t ~op:"mm_entails" db (fun () ->
      memo t t.witnesses db (fun key -> qkey ~part ~form:f key "mm_entails")
        (fun _ -> Models.minimal_witness ~part db f))

(* MM(DB;P;Z) ⊨ F — the ECWA/EGCWA decision problem. *)
let minimal_entails ?part t db f =
  Option.is_none (minimal_witness ?part t db (Formula.not_ f))

(* {x : DB ⊭ x} — Reiter's CWA closure, n assumption solves on one
   solver. *)
let non_entailed_atoms t db =
  tick t;
  instrumented t ~op:"non_entailed" db (fun () ->
      memo t t.interps db (fun key -> qkey key "non_entailed") (fun st ->
          let st = st () in
          Interp.of_pred (Db.num_vars db) (fun x ->
              solve_sat ~assumptions:[ Lit.Neg x ] st)))

(* Generic per-semantics result memo for semantics whose decision procedure
   the engine does not decompose (PWS, CIRC, ICWA, PERF, DSM, PDSM): the
   engine still canonicalizes, caches and instruments the answer. *)
let cached_bool ?part ?formula ?(arg = -1) t ~sem ~op db compute =
  tick t;
  instrumented t ~op:(sem ^ "/" ^ op) db (fun () ->
      memo t t.bools db
        (fun key -> qkey ?part ?form:formula ~arg key (sem ^ "/" ^ op))
        (fun _ -> compute ()))

(* ------------------------------------------------------------------ *)
(* Fragment classification and polynomial fast paths                   *)

(* One syntactic classification per hash-consed theory (cached engines);
   uncached engines recompute per query, like their per-op theory states
   — and keep their hash-cons table (the "theories" stat) empty.
   Classification is pure syntax, never an oracle call: it bumps only the
   [classifications] counter. *)
let classify t db =
  let compute () =
    bump (fun c -> c.classifications <- c.classifications + 1) t;
    Ddb_frag.Frag.info db
  in
  if t.cache then begin
    let key = theory_key t db in
    match Hashtbl.find_opt t.frags key with
    | Some info -> info
    | None ->
      let info = compute () in
      Hashtbl.add t.frags key info;
      info
  end
  else compute ()

(* A query answered by a dedicated polynomial algorithm.  Not an oracle
   call (the oracle machinery never runs), but still one unit of logical
   work: the budget probe fires exactly like [tick]'s, so wall deadlines,
   logical caps and the deterministic fault injector all see fast-path
   cells.  Under tracing the evaluation is a [fastpath.<op>] span; while
   profiling it feeds the [fastpath.hit] counter and a latency
   histogram. *)
let fastpath_hit t ~op db f =
  bump (fun c -> c.fastpath_hits <- c.fastpath_hits + 1) t;
  Ddb_budget.Budget.on_oracle_op ();
  if not (t.profile || Ddb_obs.Trace.enabled ()) then f ()
  else begin
    let open Ddb_obs.Trace in
    let traced = enabled () in
    let span = name ("fastpath." ^ op) in
    (if traced then
       let theory = if t.cache then theory_key t db else -1 in
       begin_args span
         (if theory >= 0 then [ (n_theory, Int theory) ] else []));
    let t0 = metric_now () in
    let finished = ref false in
    Fun.protect
      ~finally:(fun () -> if traced && not !finished then end_ span)
      (fun () ->
        let r = f () in
        finished := true;
        if t.profile then begin
          Ddb_obs.Metrics.observe t.metrics ("fastpath." ^ op)
            (metric_now () -. t0);
          Ddb_obs.Metrics.incr_counter t.metrics "fastpath.hit"
        end;
        if traced then end_ span;
        r)
  end

(* The dispatch layer fell through to the generic oracle path. *)
let fastpath_miss t =
  bump (fun c -> c.fastpath_misses <- c.fastpath_misses + 1) t;
  if t.profile then Ddb_obs.Metrics.incr_counter t.metrics "fastpath.miss"

(* ------------------------------------------------------------------ *)
(* Budgeted (three-valued) evaluation                                  *)

type answer = Ddb_budget.Budget.answer =
  | True
  | False
  | Unknown of Ddb_budget.Budget.reason

(* Degradation bookkeeping: the memo tables need no special handling —
   [Out_of_budget] unwinds out of [memo]'s compute thunk before the
   [Hashtbl.add], so only definite answers are ever cached.  All that is
   left to record here is the fact that a cell degraded. *)
let record_unknown t ~sem =
  t.total.unknowns <- t.total.unknowns + 1;
  let c = scope_counters t sem in
  c.unknowns <- c.unknowns + 1;
  if t.profile then
    Ddb_obs.Metrics.incr_counter t.metrics "budget.exhausted"

let budgeted ?retry ?group t limits ~sem f =
  let on_trip ~retrying _ =
    record_unknown t ~sem;
    if retrying && t.profile then
      Ddb_obs.Metrics.incr_counter t.metrics "budget.retry"
  in
  let run () = scoped t sem f in
  match Ddb_budget.Budget.run ?group ?retry ~on_trip limits run with
  | Ok b -> Ddb_budget.Budget.of_bool b
  | Error r -> Unknown r

(* ------------------------------------------------------------------ *)
(* Stats reporting                                                     *)

type stats = {
  scope : string;
  oracle_calls : int;
  cache_hits : int;
  cache_misses : int;
  sat_solve_calls : int;
  sigma2_queries : int;
  sat_conflicts : int;
  sat_decisions : int;
  sat_propagations : int;
  fastpath_hits : int;
  fastpath_misses : int;
  classifications : int;
  unknowns : int;
  wall_ms : float;
}

let stats_of_counters scope (c : counters) =
  {
    scope;
    oracle_calls = c.oracle_calls;
    cache_hits = c.cache_hits;
    cache_misses = c.cache_misses;
    sat_solve_calls = c.sat_calls;
    sigma2_queries = c.sigma2_calls;
    sat_conflicts = c.conflicts;
    sat_decisions = c.decisions;
    sat_propagations = c.propagations;
    fastpath_hits = c.fastpath_hits;
    fastpath_misses = c.fastpath_misses;
    classifications = c.classifications;
    unknowns = c.unknowns;
    wall_ms = c.time_ms;
  }

let totals t = stats_of_counters "total" t.total

let per_scope t =
  Hashtbl.fold (fun name c acc -> stats_of_counters name c :: acc) t.per_scope []
  |> List.sort (fun a b -> String.compare a.scope b.scope)

(* --- cross-shard aggregation ---

   The parallel batch layer runs one engine per worker domain; summing the
   shards' records field-wise reproduces what a single engine would have
   recorded for the same query multiset (exactly so for cache-disabled
   shards, whose per-query costs are deterministic and context-free). *)

let add_stats ~scope a b =
  {
    scope;
    oracle_calls = a.oracle_calls + b.oracle_calls;
    cache_hits = a.cache_hits + b.cache_hits;
    cache_misses = a.cache_misses + b.cache_misses;
    sat_solve_calls = a.sat_solve_calls + b.sat_solve_calls;
    sigma2_queries = a.sigma2_queries + b.sigma2_queries;
    sat_conflicts = a.sat_conflicts + b.sat_conflicts;
    sat_decisions = a.sat_decisions + b.sat_decisions;
    sat_propagations = a.sat_propagations + b.sat_propagations;
    fastpath_hits = a.fastpath_hits + b.fastpath_hits;
    fastpath_misses = a.fastpath_misses + b.fastpath_misses;
    classifications = a.classifications + b.classifications;
    unknowns = a.unknowns + b.unknowns;
    wall_ms = a.wall_ms +. b.wall_ms;
  }

let zero_stats scope =
  {
    scope;
    oracle_calls = 0;
    cache_hits = 0;
    cache_misses = 0;
    sat_solve_calls = 0;
    sigma2_queries = 0;
    sat_conflicts = 0;
    sat_decisions = 0;
    sat_propagations = 0;
    fastpath_hits = 0;
    fastpath_misses = 0;
    classifications = 0;
    unknowns = 0;
    wall_ms = 0.;
  }

let merge_stats engines =
  List.fold_left
    (fun acc t -> add_stats ~scope:"total" acc (totals t))
    (zero_stats "total") engines

let merge_per_scope engines =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun t ->
      List.iter
        (fun s ->
          let acc =
            Option.value (Hashtbl.find_opt tbl s.scope)
              ~default:(zero_stats s.scope)
          in
          Hashtbl.replace tbl s.scope (add_stats ~scope:s.scope acc s))
        (per_scope t))
    engines;
  Hashtbl.fold (fun _ s acc -> s :: acc) tbl []
  |> List.sort (fun a b -> String.compare a.scope b.scope)

let pp_stats ppf s =
  Fmt.pf ppf
    "%s: oracle=%d hits=%d misses=%d sat=%d sigma2=%d conflicts=%d \
     decisions=%d props=%d fastpath=%d/%d classified=%d unknowns=%d %.2fms"
    s.scope s.oracle_calls s.cache_hits s.cache_misses s.sat_solve_calls
    s.sigma2_queries s.sat_conflicts s.sat_decisions s.sat_propagations
    s.fastpath_hits s.fastpath_misses s.classifications s.unknowns s.wall_ms

(* JSON emission (hand-rolled; schema documented in EXPERIMENTS.md). *)

let json_of_stats s =
  Printf.sprintf
    {|{"oracle_calls":%d,"cache_hits":%d,"cache_misses":%d,"sat_solve_calls":%d,"sigma2_queries":%d,"sat_conflicts":%d,"sat_decisions":%d,"sat_propagations":%d,"fastpath_hits":%d,"fastpath_misses":%d,"classifications":%d,"unknowns":%d,"wall_ms":%.3f}|}
    s.oracle_calls s.cache_hits s.cache_misses s.sat_solve_calls
    s.sigma2_queries s.sat_conflicts s.sat_decisions s.sat_propagations
    s.fastpath_hits s.fastpath_misses s.classifications s.unknowns s.wall_ms

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let stats_json_parts ~cache ~theories ~total ~scopes =
  let scopes =
    scopes
    |> List.map (fun s ->
           Printf.sprintf {|"%s":%s|} (json_escape s.scope) (json_of_stats s))
    |> String.concat ","
  in
  Printf.sprintf {|{"cache":%b,"theories":%d,"total":%s,"per_semantics":{%s}}|}
    cache theories (json_of_stats total) scopes

let stats_json t =
  stats_json_parts ~cache:t.cache ~theories:t.next_key ~total:(totals t)
    ~scopes:(per_scope t)

(* Merged shard record, same schema as [stats_json]: [cache] holds iff every
   shard caches; [theories] counts hash-consed keys summed over the shards
   (each shard hash-conses independently). *)
let merged_stats_json engines =
  stats_json_parts
    ~cache:(List.for_all cache_enabled engines && engines <> [])
    ~theories:(List.fold_left (fun acc t -> acc + t.next_key) 0 engines)
    ~total:(merge_stats engines)
    ~scopes:(merge_per_scope engines)
