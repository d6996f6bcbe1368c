(** The registry's wrapper: attribution and tractability-aware fast-path
    dispatch.

    [wrap s] returns [s] with every field ([has_model],
    [infer_formula], [infer_literal], [witness]) run inside
    [Engine.scoped] on the engine [eng] it is asked on, under the record's
    scope handle [Engine.scope s.name], whatever the engine's
    configuration.  The handle and the fast-path ops are resolved once per
    record, and an untraced question builds no closure.  This is the only place in
    [Ddb_core] that opens a scope: a record's oracle work, wall time and
    [scope.<name>] trace span are its own, and the registry wraps every
    record with it, once.

    The three decision problems are also routed through the engine's
    fragment classifier: when the (semantics, problem, fragment) triple
    lands in a P cell of the paper's Table 1 or Table 2, the query is
    answered by a dedicated polynomial algorithm from {!Ddb_frag.Frag}
    (counted as a [fastpath] hit, budget-probed, traced); otherwise it
    falls through to [s]'s generic oracle procedure (counted as a miss).
    The classification runs inside the scope, so its count and wall time
    are that semantics' work.  With the engine's fastpath gate off
    ([Engine.create ~fastpath:false]) every query runs the generic path
    and no fast-path counter moves; the scope stays.

    Routed cells (registry semantics at their canonical total partition;
    with [part], the partition a record is asked at, none is routed):
    - definite-Horn databases (integrity clauses allowed): CWA, GCWA,
      EGCWA, CCWA, ECWA, CIRC, DDR, PWS and DSM all have the single
      intended model [lfp(DB)] when consistent (and no models otherwise),
      so inference is evaluation in the least model and existence is the
      linear consistency check;
    - positive databases without integrity clauses: DDR/PWS
      negative-literal inference via the linear relevancy-graph closure
      (Chan's tractable cell), GCWA/CCWA model existence (always
      consistent);
    - stratified normal databases without integrity clauses: PERF, ICWA
      and DSM inference by evaluation in the iterated least model (the
      unique perfect = unique stable model), and their O(1) existence
      cells. *)

val wrap : ?part:Ddb_logic.Partition.t -> Semantics.spec -> Semantics.spec
