(* Oracle-call counters for the empirical complexity harness.

   [bump_sat] is called by every [Solver.solve]; higher-level oracles (the
   Sigma-2 oracle in lib/core and lib/qbf) call [bump_sigma2].  The solver
   additionally mirrors its per-instance search effort (conflicts,
   decisions, propagations) into these counters so that callers — in
   particular the memoizing oracle engine — can attribute solver work to a
   scope without holding a reference to every solver ever created.  Benches
   snapshot, run a task, and report the deltas.

   The counters are domain-local (Domain.DLS): each domain of the parallel
   batch layer accumulates its own set, so concurrent workers never race on
   an increment and a snapshot/delta window taken on one domain is exact for
   the work that domain did.  Aggregation across domains happens one layer
   up, in the engine's per-shard stats records. *)

type counters = {
  mutable sat : int;
  mutable sigma2 : int;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
}

let key =
  Domain.DLS.new_key (fun () ->
      { sat = 0; sigma2 = 0; conflicts = 0; decisions = 0; propagations = 0 })

let counters () = Domain.DLS.get key

let bump_sat () =
  let c = counters () in
  c.sat <- c.sat + 1

let bump_sigma2 () =
  let c = counters () in
  c.sigma2 <- c.sigma2 + 1

let bump_conflict () =
  let c = counters () in
  c.conflicts <- c.conflicts + 1

let bump_decision () =
  let c = counters () in
  c.decisions <- c.decisions + 1

let bump_propagation () =
  let c = counters () in
  c.propagations <- c.propagations + 1

type snapshot = {
  sat : int;
  sigma2 : int;
  conflicts : int;
  decisions : int;
  propagations : int;
}

let snapshot () =
  let c = counters () in
  {
    sat = c.sat;
    sigma2 = c.sigma2;
    conflicts = c.conflicts;
    decisions = c.decisions;
    propagations = c.propagations;
  }

let delta before =
  let now = snapshot () in
  {
    sat = now.sat - before.sat;
    sigma2 = now.sigma2 - before.sigma2;
    conflicts = now.conflicts - before.conflicts;
    decisions = now.decisions - before.decisions;
    propagations = now.propagations - before.propagations;
  }
