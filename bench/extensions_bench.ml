open Ddb_logic
open Ddb_db
open Ddb_core
open Ddb_workload

(* Benches for the extensions beyond the paper's tables:

   - brave vs cautious inference (the dual problems from the companion
     work: Σ₂ᵖ vs Π₂ᵖ etc.);
   - WFS: the polynomial non-disjunctive baseline (zero oracle calls);
   - the CWA-consistency P^NP[O(log n)] remark: NP-oracle query counts,
     log vs linear. *)

let time_with_stats f =
  let before = Ddb_sat.Stats.snapshot () in
  let t0 = Unix.gettimeofday () in
  let _ = f () in
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  (ms, (Ddb_sat.Stats.delta before).Ddb_sat.Stats.sat)

let brave_vs_cautious () =
  Fmt.pr "@.=== Extension: brave vs cautious inference (EGCWA / DSM) ===@.";
  Fmt.pr "  %-6s %-22s %-22s@." "n" "egcwa cautious/brave ms"
    "dsm cautious/brave ms";
  List.iter
    (fun n ->
      let db = Random_db.normal ~seed:(3 * n) ~num_vars:n in
      let f = Random_db.formula ~seed:n ~num_vars:n ~depth:2 in
      (* the paper's baseline configuration: no memo, no fast path *)
      let sem name =
        Option.get
          (Registry.find_in
             (Ddb_engine.Engine.create ~cache:false ~fastpath:false ())
             name)
      in
      let cautious name () = (sem name).Semantics.infer_formula db f in
      let brave name () = (sem name).Semantics.witness db f <> None in
      let ec, _ = time_with_stats (cautious "egcwa") in
      let eb, _ = time_with_stats (brave "egcwa") in
      let dc, _ = time_with_stats (cautious "dsm") in
      let db_, _ = time_with_stats (brave "dsm") in
      Fmt.pr "  %-6d %10.2f /%10.2f %10.2f /%10.2f@." n ec eb dc db_)
    [ 10; 20; 40 ]

(* Normal-program family for WFS. *)
let nlp ~seed ~num_vars =
  let rng = Rng.create seed in
  let vocab = Vocab.of_size num_vars in
  let atom () = Rng.int rng num_vars in
  Db.make ~vocab
    (List.init (2 * num_vars) (fun _ ->
         Clause.make
           ~head:[ atom () ]
           ~pos:(List.init (Rng.int rng 2) (fun _ -> atom ()))
           ~neg:(List.init (Rng.int rng 2) (fun _ -> atom ()))))

let wfs () =
  Fmt.pr "@.=== Extension: WFS (polynomial, zero oracle calls) ===@.";
  Fmt.pr "  %-6s %-12s %-10s %-10s@." "n" "time ms" "sat calls" "total?";
  List.iter
    (fun n ->
      let db = nlp ~seed:(7 * n) ~num_vars:n in
      let before = Ddb_sat.Stats.snapshot () in
      let t0 = Unix.gettimeofday () in
      let w = Wfs.compute db in
      let ms = (Unix.gettimeofday () -. t0) *. 1000. in
      Fmt.pr "  %-6d %-12.2f %-10d %-10b@." n ms
        (Ddb_sat.Stats.delta before).Ddb_sat.Stats.sat
        (Three_valued.is_total w))
    [ 50; 100; 200; 400; 800 ]

let cwa_log () =
  Fmt.pr "@.=== Extension: CWA consistency, NP-oracle calls (log vs linear) ===@.";
  Fmt.pr "  %-6s %-10s %-10s %-12s %-8s@." "n" "log-calls" "log-bound"
    "linear-calls" "agree";
  List.iter
    (fun n ->
      let db = Random_db.normal ~seed:(11 * n) ~num_vars:n in
      let log = Oracle_algorithms.cwa_consistency_log db in
      let lin = Oracle_algorithms.cwa_consistency_linear db in
      Fmt.pr "  %-6d %-10d %-10d %-12d %-8b@." n
        log.Oracle_algorithms.np_queries
        (Oracle_algorithms.log_bound n)
        lin.Oracle_algorithms.np_queries
        (log.Oracle_algorithms.consistent = lin.Oracle_algorithms.consistent))
    [ 8; 16; 32; 64; 128; 256 ]

(* The median wall time of 15 calls of [f], in µs, after a full major
   collection, so that no call pays for the garbage of the code before it;
   with the last call's answer. *)
let median_us f =
  let k = 15 in
  Gc.full_major ();
  let answer = ref None in
  let times =
    Array.init k (fun _ ->
        let t0 = Unix.gettimeofday () in
        answer := Some (f ());
        (Unix.gettimeofday () -. t0) *. 1e6)
  in
  Array.sort Float.compare times;
  (times.(k / 2), Option.get !answer)

(* Two realizations of the same Σ₂ᵖ oracle query ("is x in some minimal
   model?"): the incremental SAT guess-and-check loop vs the monolithic
   2-QBF CEGAR encoding.  Each side is the median of 15 calls, the loop on
   a fresh engine each. *)
let sigma2_realizations () =
  Fmt.pr "@.=== Extension: Sigma2 oracle realizations (SAT loop vs QBF CEGAR) ===@.";
  Fmt.pr "  %-6s %-14s %-14s %-8s@." "n" "sat-loop us" "qbf-cegar us" "agree";
  List.iter
    (fun n ->
      let db = Random_db.positive ~seed:(13 * n) ~num_vars:n in
      let x = n / 2 in
      let loop_us, direct =
        median_us (fun () ->
            not
              ((Option.get (Registry.find "gcwa")).infer_literal db (Lit.Neg x)))
      in
      let cegar_us, via_qbf =
        median_us (fun () -> Qbf_encodings.gcwa_refutes_neg_literal_qbf db x)
      in
      Fmt.pr "  %-6d %-14.1f %-14.1f %-8b@." n loop_us cegar_us
        (direct = via_qbf))
    [ 8; 12; 16; 20; 24 ]

let run () =
  brave_vs_cautious ();
  wfs ();
  cwa_log ();
  sigma2_realizations ()
