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
       the same database share one cache line.  The engine remembers the
       last database it keyed: [Db.t] is immutable, so when it is handed
       the same physical value again the key is returned without
       canonicalizing;
     - each theory key fronts one entry, built part by part on first use:
       the fragment classification, the compiled {!Minimal.theory} and a
       single incremental {!Solver.t}.  Entailment and consistency queries
       run on that solver under assumptions (closed-world literals, the
       named literal of a negated query) instead of rebuilding a solver
       per query, so learned clauses accumulate;
     - every solver over a theory's clauses, the shared one included, is a
       copy of the compiled theory's never-solved image, in exactly the
       state a fresh build would have: the database is built into a solver
       once per entry, and every solve, model and oracle count is what a
       fresh solver per question would give;
     - results of the expensive oracles (support sets, minimal-model
       enumerations, entailment answers, per-semantics decision answers)
       are memoized per canonical key;
     - every operation is instrumented: oracle calls, cache hits/misses,
       and — through {!Stats} — SAT solve calls, conflicts, decisions,
       propagations and wall time, attributable per semantics via
       {!scoped}.

   Every op has one body.  An engine created with [~cache:false] runs the
   same body but skips the memo tables and the interning, and makes a fresh
   per-op entry instead of reusing the interned one: one oracle question,
   one fresh solver — the paper's algorithms as stated, and the baseline
   configuration the differential tests and the bench harness compare
   against. *)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

(* The engine's one counter record: the engine total and each semantics'
   bucket are [stats] values, bumped in place. *)
type stats = {
  scope : string;
  mutable oracle_calls : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable sat_solve_calls : int;
  mutable sigma2_queries : int;
  mutable sat_conflicts : int;
  mutable sat_decisions : int;
  mutable sat_propagations : int;
  mutable fastpath_hits : int;
  mutable fastpath_misses : int;
  mutable classifications : int;
  mutable unknowns : int;
  mutable wall_ms : float;
}

let zero scope =
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

(* Field-wise [into += s]. *)
let add ~into s =
  into.oracle_calls <- into.oracle_calls + s.oracle_calls;
  into.cache_hits <- into.cache_hits + s.cache_hits;
  into.cache_misses <- into.cache_misses + s.cache_misses;
  into.sat_solve_calls <- into.sat_solve_calls + s.sat_solve_calls;
  into.sigma2_queries <- into.sigma2_queries + s.sigma2_queries;
  into.sat_conflicts <- into.sat_conflicts + s.sat_conflicts;
  into.sat_decisions <- into.sat_decisions + s.sat_decisions;
  into.sat_propagations <- into.sat_propagations + s.sat_propagations;
  into.fastpath_hits <- into.fastpath_hits + s.fastpath_hits;
  into.fastpath_misses <- into.fastpath_misses + s.fastpath_misses;
  into.classifications <- into.classifications + s.classifications;
  into.unknowns <- into.unknowns + s.unknowns;
  into.wall_ms <- into.wall_ms +. s.wall_ms

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

(* Per-theory shared solver: the theory clauses plus, over time, the
   definitions naming queried formulas (activated only by assuming their
   named literal — definitional clauses never constrain the original
   atoms) and the solver's own learned clauses. *)
type theory_state = {
  solver : Solver.t;
  mutable next_var : int;
  (* Named literal per already-encoded formula, so a repeated
     query re-uses its encoding instead of growing the solver. *)
  encoded : (Formula.t, Lit.t) Hashtbl.t;
}

(* Everything the engine derives from one theory, each part built on first
   use, so a theory that only takes a fast path never gets a solver: the
   fragment classification, the compiled theory (whose image every solver
   over these clauses is copied from) and the shared solver state.  [db] is
   the database the entry was made for. *)
type entry = {
  db : Db.t;
  mutable frag : Ddb_frag.Frag.info option;
  mutable compiled : Minimal.theory option;
  mutable state : theory_state option;
}

let new_entry db = { db; frag = None; compiled = None; state = None }

let compiled e =
  match e.compiled with
  | Some th -> th
  | None ->
    let th = Db.theory e.db in
    e.compiled <- Some th;
    th

let state e =
  match e.state with
  | Some st -> st
  | None ->
    let st =
      {
        solver = Minimal.solver_of (compiled e);
        next_var = Db.num_vars e.db;
        encoded = Hashtbl.create 16;
      }
    in
    e.state <- Some st;
    st

(* Memo keys for the oracle caches.  Structural equality on formulas, int
   lists and partitions.  A partition is keyed by itself: the theory key
   fixes the universe size, so two partitions of it are equal exactly when
   their P and Q are (Z is the rest). *)
type qkey = {
  theory : int;
  op : string;
  negs : int list;
  part : Partition.t option;
  form : Formula.t option;
}

let qkey ?(negs = []) ?part ?form theory op = { theory; op; negs; part; form }

(* A scope handle: a semantics' name, resolved once.  [id] indexes every
   engine's bucket array; [span] is the interned [scope.<name>] trace
   name. *)
type scope = { id : int; name : string; span : Ddb_obs.Trace.name }

(* Every scope name the process has seen, interned once under a lock: the
   same name always gives the same handle, whichever domain asks, so a
   record wrapped afresh per question (a ⟨P;Q;Z⟩ record) still lands in
   one bucket, and an id means the same name in every engine. *)
let scopes_lock = Mutex.create ()
let scopes : (string, scope) Hashtbl.t = Hashtbl.create 16

let scope name =
  Mutex.protect scopes_lock (fun () ->
      match Hashtbl.find_opt scopes name with
      | Some h -> h
      | None ->
        let span = Ddb_obs.Trace.name ("scope." ^ name) in
        let h = { id = Hashtbl.length scopes; name; span } in
        Hashtbl.add scopes name h;
        h)

let scopes_interned () =
  Mutex.protect scopes_lock (fun () -> Hashtbl.length scopes)

type t = {
  cache : bool;
  (* Fragment fast-path dispatch gate: with it off, the dispatch layer in
     lib/core routes every query through the generic oracle path — the
     ablation baseline of BENCH_fastpath.json and `ddbtool --no-fastpath`. *)
  fastpath : bool;
  mutable total : stats;
  (* Each scope's bucket at its handle's id, [None] until first used: the
     only store of the per-semantics records. *)
  mutable buckets : stats option array;
  (* The bucket of the outermost open [scoped] call: the [Some] cell of
     [buckets] itself, so opening a scope allocates nothing. *)
  mutable in_scope : stats option;
  (* The open scope's window: the domain's {!Stats} counters and the clock
     (ns) when it opened; it credits [live − mark] when it closes. *)
  mutable mark_sat : int;
  mutable mark_sigma2 : int;
  mutable mark_conflicts : int;
  mutable mark_decisions : int;
  mutable mark_propagations : int;
  mutable start_ns : int;
  keys : (raw_key, int) Hashtbl.t;
  mutable next_key : int;
  (* The last database keyed and its key ([Db.t] is immutable). *)
  mutable last_db : Db.t option;
  mutable last_key : int;
  entries : (int, entry) Hashtbl.t;
  bools : (qkey, bool) Hashtbl.t;
  interps : (qkey, Interp.t) Hashtbl.t;
  (* Witness searches: the model the solve found, or [None]. *)
  witnesses : (qkey, Interp.t option) Hashtbl.t;
}

let create ?(cache = true) ?(fastpath = true) () =
  {
    cache;
    fastpath;
    total = zero "total";
    buckets = [||];
    in_scope = None;
    mark_sat = 0;
    mark_sigma2 = 0;
    mark_conflicts = 0;
    mark_decisions = 0;
    mark_propagations = 0;
    start_ns = 0;
    keys = Hashtbl.create 64;
    next_key = 0;
    last_db = None;
    last_key = -1;
    entries = Hashtbl.create 64;
    bools = Hashtbl.create 256;
    interps = Hashtbl.create 64;
    witnesses = Hashtbl.create 256;
  }

let cache_enabled t = t.cache
let fastpath_enabled t = t.fastpath

let reset t =
  t.total <- zero "total";
  t.buckets <- [||];
  t.in_scope <- None;
  Hashtbl.reset t.keys;
  t.next_key <- 0;
  t.last_db <- None;
  t.last_key <- -1;
  Hashtbl.reset t.entries;
  Hashtbl.reset t.bools;
  Hashtbl.reset t.interps;
  Hashtbl.reset t.witnesses

let theory_key t db =
  match t.last_db with
  | Some last when last == db -> t.last_key
  | _ ->
    let raw = canonical_of_db db in
    let id =
      match Hashtbl.find_opt t.keys raw with
      | Some id -> id
      | None ->
        let id = t.next_key in
        t.next_key <- id + 1;
        Hashtbl.add t.keys raw id;
        id
    in
    t.last_db <- Some db;
    t.last_key <- id;
    id

let interned_entry t db key =
  match Hashtbl.find t.entries key with
  | e -> e
  | exception Not_found ->
    let e = new_entry db in
    Hashtbl.add t.entries key e;
    e

(* The theory's entry: interned on cached engines, made for this one op on
   uncached ones. *)
let entry t db = if t.cache then interned_entry t db (theory_key t db) else new_entry db

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)

let bump f t =
  f t.total;
  match t.in_scope with None -> () | Some c -> f c

let tick t =
  bump (fun c -> c.oracle_calls <- c.oracle_calls + 1) t;
  (* One logical budget tick per engine oracle op — also the hook the
     deterministic fault injector counts down on. *)
  Ddb_budget.Budget.on_oracle_op ()
let hit t = bump (fun c -> c.cache_hits <- c.cache_hits + 1) t
let miss t = bump (fun c -> c.cache_misses <- c.cache_misses + 1) t

(* The bucket of scope [id], named [name], made on first use; the array
   grows to cover the id. *)
let bucket_at t id name =
  let n = Array.length t.buckets in
  if id >= n then begin
    let a = Array.make (id + 1) None in
    Array.blit t.buckets 0 a 0 n;
    t.buckets <- a
  end;
  match t.buckets.(id) with
  | Some c -> c
  | None ->
    let c = zero name in
    t.buckets.(id) <- Some c;
    c

let bucket t h = bucket_at t h.id h.name

let n_theory = Ddb_obs.Trace.name "theory"
let n_cache_hit = Ddb_obs.Trace.name "cache_hit"
let n_unwound = Ddb_obs.Trace.name "unwound"
let n_semantics = Ddb_obs.Trace.name "semantics"

(* A semantics' op, [<semantics>/<problem>]: its memo key name and its two
   span names, interned once per record instead of once per traced op. *)
type op = {
  op_name : string;
  engine_span : Ddb_obs.Trace.name;
  fastpath_span : Ddb_obs.Trace.name;
}

let op op_name =
  {
    op_name;
    engine_span = Ddb_obs.Trace.name ("engine." ^ op_name);
    fastpath_span = Ddb_obs.Trace.name ("fastpath." ^ op_name);
  }

(* The fixed ops' [engine.<op>] span names. *)
let n_sat = Ddb_obs.Trace.name "engine.sat"
let n_aug_sat = Ddb_obs.Trace.name "engine.aug_sat"
let n_aug_entails = Ddb_obs.Trace.name "engine.aug_entails"
let n_support = Ddb_obs.Trace.name "engine.support"
let n_in_some_minimal = Ddb_obs.Trace.name "engine.in_some_minimal"
let n_mm_entails = Ddb_obs.Trace.name "engine.mm_entails"
let n_non_entailed = Ddb_obs.Trace.name "engine.non_entailed"

(* The one probe, around every oracle op ([engine.<op>] span, opened by
   [memo]) and every fast-path evaluation ([fastpath.<op>] span).  The span
   carries the hash-consed theory key; [attrs r] gives its end event's
   arguments.  An op that raises ends its span with [unwound] instead. *)
let probe t span db f attrs =
  let open Ddb_obs.Trace in
  (let theory = if t.cache then theory_key t db else -1 in
   begin_args span (if theory >= 0 then [ (n_theory, Int theory) ] else []));
  match f () with
  | r ->
    end_args span (attrs r);
    r
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    end_args span [ (n_unwound, Bool true) ];
    Printexc.raise_with_backtrace e bt

(* The wall clock in ns, read without allocating. *)
let now_ns () = Float.to_int (Unix.gettimeofday () *. 1e9)

(* Credit the open window's solver work, [live − mark], and [ns] of wall
   time to one record. *)
let credit t c (live : Stats.counters) ns =
  c.sat_solve_calls <- c.sat_solve_calls + live.Stats.sat - t.mark_sat;
  c.sigma2_queries <- c.sigma2_queries + live.Stats.sigma2 - t.mark_sigma2;
  c.sat_conflicts <- c.sat_conflicts + live.Stats.conflicts - t.mark_conflicts;
  c.sat_decisions <- c.sat_decisions + live.Stats.decisions - t.mark_decisions;
  c.sat_propagations <-
    c.sat_propagations + live.Stats.propagations - t.mark_propagations;
  c.wall_ms <- c.wall_ms +. (Float.of_int ns /. 1e6)

(* Close the outermost scope: credit its bucket and the total, end its
   span. *)
let close_scope t c h traced =
  let ns = now_ns () - t.start_ns in
  let live = Stats.counters () in
  t.in_scope <- None;
  credit t c live ns;
  credit t t.total live ns;
  if traced then Ddb_obs.Trace.end_ h.span

(* Run [f t a b] attributing solver work and wall time to [h]'s bucket.
   The body and its arguments come apart so a caller passes a function it
   made once, not a closure per call.  Nested scopes keep attributing to
   the outermost one (a semantics calling into shared machinery is still
   that semantics' work).  Under tracing, the outermost scope is also a
   top-level [scope.<name>] span — the per-semantics lane the oracle-op
   spans nest under.  A body that raises (a budget trip, say) is credited
   all the same before the exception goes on. *)
let scoped t h f a b =
  match t.in_scope with
  | Some _ -> f t a b
  | None -> (
    let traced = Ddb_obs.Trace.enabled () in
    if traced then
      Ddb_obs.Trace.begin_args h.span
        [ (n_semantics, Ddb_obs.Trace.Str h.name) ];
    let c = bucket t h in
    t.in_scope <- t.buckets.(h.id);
    let live = Stats.counters () in
    t.mark_sat <- live.Stats.sat;
    t.mark_sigma2 <- live.Stats.sigma2;
    t.mark_conflicts <- live.Stats.conflicts;
    t.mark_decisions <- live.Stats.decisions;
    t.mark_propagations <- live.Stats.propagations;
    t.start_ns <- now_ns ();
    match f t a b with
    | r ->
      close_scope t c h traced;
      r
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      close_scope t c h traced;
      Printexc.raise_with_backtrace e bt)

(* ------------------------------------------------------------------ *)
(* Memoization plumbing                                                *)

(* The one place the cache flag is read by the oracle ops.  A cached engine
   interns the theory, answers repeats from [tbl] under [mk key], and hands
   [compute] the theory's interned entry on a miss.  An uncached engine
   skips the table and hands [compute] an entry made for this op alone, so
   its solver state is fresh per op.  [compute] builds only the parts of
   the entry it uses.  The flag says whether the table answered. *)
let lookup t tbl db mk compute =
  if t.cache then begin
    let key = theory_key t db in
    let k = mk key in
    match Hashtbl.find_opt tbl k with
    | Some v ->
      hit t;
      (v, true)
    | None ->
      miss t;
      let v = compute (interned_entry t db key) in
      Hashtbl.add tbl k v;
      (v, false)
  end
  else (compute (new_entry db), false)

(* One oracle op: a tick, then the lookup.  Off (no trace) the probe is a
   single [Trace.enabled ()] test.  On, the op is an [engine.<op>] span
   whose end event's [cache_hit] is this op's own lookup, so an op whose
   compute makes a nested op's memo hit still reports its own miss. *)
let memo t ~span tbl db mk compute =
  tick t;
  if not (Ddb_obs.Trace.enabled ()) then fst (lookup t tbl db mk compute)
  else
    fst
      (probe t span db
         (fun () -> lookup t tbl db mk compute)
         (fun (_, own) -> [ (n_cache_hit, Ddb_obs.Trace.Bool own) ]))

(* The named literal L → [f] on a theory state: encoded once, activated
   per query by assuming it.  Definitional clauses only constrain fresh
   auxiliary variables, so adding them permanently preserves the solver's
   theory. *)
let encoded_formula st f =
  match Hashtbl.find_opt st.encoded f with
  | Some out -> out
  | None ->
    let clauses, next', out = Cnf.named_literal ~next_var:st.next_var f in
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
  memo t ~span:n_sat t.bools db (fun key -> qkey key "sat") (fun e ->
      solve_sat (state e))

(* DB ∪ {¬x : x ∈ negs} has a model: negation set as assumptions. *)
let augmented_has_model t db negs =
  memo t ~span:n_aug_sat t.bools db
    (fun key -> qkey ~negs:(Interp.to_list negs) key "aug_sat")
    (fun e -> solve_sat ~assumptions:(neg_assumptions negs) (state e))

(* A model of DB ∪ {¬x : x ∈ negs} satisfying F: assume the named literal
   of F plus the negation literals, and keep the model the solve finds.  It
   is a brave witness for F and a counterexample to the cautious query ¬F,
   so both read the same memo entry.  The op keeps its entailment name. *)
let augmented_witness t db negs f =
  let n = max (Db.num_vars db) (Formula.max_atom f + 1) in
  let db = Db.with_universe db n in
  memo t ~span:n_aug_entails t.witnesses db
    (fun key -> qkey ~negs:(Interp.to_list negs) ~form:f key "aug_entails")
    (fun e ->
      let st = state e in
      let out = encoded_formula st f in
      if solve_sat ~assumptions:(out :: neg_assumptions negs) st then
        Some (Solver.model ~universe:n st.solver)
      else None)

(* DB ∪ {¬x : x ∈ negs} ⊨ F: no model of the augmented theory satisfies ¬F. *)
let augmented_entails t db negs f =
  Option.is_none (augmented_witness t db negs (Formula.not_ f))

(* The support set S = {x ∈ P : x true in some (P;Z)-minimal model},
   harvested by [Minimal.harvest] with P's atoms as targets and no check:
   one candidate solver and one minimizer per set, each plain descent
   adding its P-atoms and blocking its cone.  The rounds number at most
   the distinct minimal (P,Q)-sections plus one (a round may add no atom
   and only block a section).  The closed-world family's central object,
   and the engine's biggest cache win: keyed by (theory, P, Q). *)
let support_set t db part =
  memo t ~span:n_support t.interps db (fun key -> qkey ~part key "support")
    (fun e ->
      fst
        (Minimal.harvest (compiled e) part ~pos:(Partition.p part)
           ~neg:(Interp.empty (Db.num_vars db))))

let negated_atoms t db part =
  Interp.diff (Partition.p part) (support_set t db part)

(* Is x true in some (P;Z)-minimal model?  Cached engines answer from the
   memoized support set; uncached engines issue the paper's single
   constrained minimal-model query (one Σ₂ᵖ-style question for GCWA/CCWA
   ¬x).  For x ∈ P the two agree by definition of the support set. *)
let in_some_minimal t db part x =
  if t.cache then Interp.mem (support_set t db part) x
  else
    memo t ~span:n_in_some_minimal t.bools db
      (fun key -> qkey ~negs:[ x ] ~part key "in_some_minimal")
      (fun e ->
        Option.is_some
          (Minimal.find_minimal_such_that
             ~extra:[ [ Lit.Pos x ] ]
             (compiled e) part))

(* A harvested set, 2n bits, as (brave_true, brave_false). *)
let split n s =
  (Interp.of_pred n (Interp.mem s), Interp.of_pred n (fun x -> Interp.mem s (n + x)))

(* The literals true in some intended model: bit x of the memoized set
   when x is true in one, bit n + x when x is false in one, harvested by
   [Minimal.harvest] at the total partition with all ±x as targets and
   [check db] screening each minimal model.  Only from a theory's second
   question on: the first one leaves a mark in [bools] and gets [None], so
   a one-shot question runs its caller's own search and costs what it
   costs on an uncached engine.  Uncached engines always get [None]: one
   search per question, as the paper states it. *)
let consequences t ~op db check =
  if not t.cache then None
  else
    let asked = qkey (theory_key t db) op.op_name in
    if not (Hashtbl.mem t.bools asked) then begin
      Hashtbl.add t.bools asked true;
      None
    end
    else
      let n = Db.num_vars db in
      let s =
        memo t ~span:op.engine_span t.interps db
          (fun key -> qkey key op.op_name)
          (fun e ->
            let all = Interp.full n in
            let brave_true, brave_false =
              Minimal.harvest ~check:(check db) (compiled e)
                (Partition.minimize_all n) ~pos:all ~neg:all
            in
            Interp.of_pred (2 * n) (fun i ->
                if i < n then Interp.mem brave_true i
                else Interp.mem brave_false (i - n)))
      in
      Some (split n s)

(* The memoized harvest, if some question built it: a read that marks no
   first question, computes nothing and counts as no op. *)
let harvested t ~op db =
  if not t.cache then None
  else
    Option.map (split (Db.num_vars db))
      (Hashtbl.find_opt t.interps (qkey (theory_key t db) op.op_name))

(* A (P;Z)-minimal model satisfying F — the ECWA/EGCWA witness, memoized
   like [augmented_witness] and under the entailment op's name. *)
let minimal_witness ?part t db f =
  let n = max (Db.num_vars db) (Formula.max_atom f + 1) in
  let db = Db.with_universe db n in
  let part = match part with Some p -> p | None -> Partition.minimize_all n in
  memo t ~span:n_mm_entails t.witnesses db
    (fun key -> qkey ~part ~form:f key "mm_entails")
    (fun e -> Models.minimal_witness ~theory:(compiled e) ~part db f)

(* {x : DB ⊭ x} — Reiter's CWA closure, n assumption solves on one
   solver. *)
let non_entailed_atoms t db =
  memo t ~span:n_non_entailed t.interps db (fun key -> qkey key "non_entailed")
    (fun e ->
      let st = state e in
      Interp.of_pred (Db.num_vars db) (fun x ->
          solve_sat ~assumptions:[ Lit.Neg x ] st))

(* Generic per-semantics result memo for semantics whose decision procedure
   the engine does not decompose (PWS, CIRC, ICWA, PERF, DSM, PDSM): the
   engine still canonicalizes, caches and instruments the answer.  [op] is
   the full op name, [<semantics>/<problem>]. *)
let cached_bool ?part ?formula t ~op db compute =
  memo t ~span:op.engine_span t.bools db
    (fun key -> qkey ?part ?form:formula key op.op_name)
    (fun _ -> compute ())

(* ------------------------------------------------------------------ *)
(* Fragment classification and polynomial fast paths                   *)

(* One syntactic classification per hash-consed theory (cached engines);
   uncached engines recompute per query, like their per-op theory states
   — and keep their hash-cons table (the "theories" stat) empty.
   Classification is pure syntax, never an oracle call: it bumps only the
   [classifications] counter. *)
let classify t db =
  let e = entry t db in
  match e.frag with
  | Some info -> info
  | None ->
    bump (fun c -> c.classifications <- c.classifications + 1) t;
    let info = Ddb_frag.Frag.info db in
    e.frag <- Some info;
    info

(* A query answered by a dedicated polynomial algorithm.  Not an oracle
   call (the oracle machinery never runs), but still one unit of logical
   work: the budget probe fires exactly like [tick]'s, so wall deadlines,
   logical caps and the deterministic fault injector all see fast-path
   cells.  Under tracing the evaluation [f x y z] is a [fastpath.<op>]
   span; untraced it is a plain call, with no thunk made. *)
let fastpath_hit t ~op db f x y z =
  bump (fun c -> c.fastpath_hits <- c.fastpath_hits + 1) t;
  Ddb_budget.Budget.on_oracle_op ();
  if not (Ddb_obs.Trace.enabled ()) then f x y z
  else probe t op.fastpath_span db (fun () -> f x y z) (fun _ -> [])

(* The dispatch layer fell through to the generic oracle path. *)
let fastpath_miss t =
  bump (fun c -> c.fastpath_misses <- c.fastpath_misses + 1) t

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
  let c = bucket t (scope sem) in
  c.unknowns <- c.unknowns + 1

(* [sem] names only the bucket a degraded cell's [unknowns] count goes to;
   attribution of the work itself is the semantics record's (the registry's
   wrapper scopes every field). *)
let budgeted ?retry ?group t limits ~sem f =
  let on_trip _ = record_unknown t ~sem in
  match Ddb_budget.Budget.run ?group ?retry ~on_trip limits f with
  | Ok b -> Ddb_budget.Budget.of_bool b
  | Error r -> Unknown r

(* ------------------------------------------------------------------ *)
(* Stats reporting                                                     *)

(* Callers get copies, so a record never changes under them. *)
let copy s = { s with scope = s.scope }
let totals t = copy t.total

let by_scope stats = List.sort (fun a b -> String.compare a.scope b.scope) stats

let per_scope t =
  by_scope
    (Array.fold_left
       (fun acc -> function Some c -> copy c :: acc | None -> acc)
       [] t.buckets)

(* --- cross-shard aggregation ---

   The parallel batch layer runs one engine per worker domain; summing the
   shards' records field-wise reproduces what a single engine would have
   recorded for the same query multiset (exactly so for cache-disabled
   shards, whose per-query costs are deterministic and context-free). *)

let merge_stats engines =
  let acc = zero "total" in
  List.iter (fun t -> add ~into:acc t.total) engines;
  acc

(* A handle id names the same scope in every engine, so the buckets sum
   id by id into a fresh engine's. *)
let merge_per_scope engines =
  let sums = create () in
  List.iter
    (fun t ->
      Array.iteri
        (fun id -> Option.iter (fun c -> add ~into:(bucket_at sums id c.scope) c))
        t.buckets)
    engines;
  per_scope sums

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

let stats_json_parts ~cache ~theories ~total ~scopes =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf {|{"cache":%b,"theories":%d,"total":%s,"per_semantics":{|}
    cache theories (json_of_stats total);
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '"';
      Ddb_obs.Trace.add_escaped buf s.scope;
      Printf.bprintf buf {|":%s|} (json_of_stats s))
    scopes;
  Buffer.add_string buf "}}";
  Buffer.contents buf

let stats_json t =
  stats_json_parts ~cache:t.cache ~theories:t.next_key ~total:t.total
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
