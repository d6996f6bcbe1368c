open Ddb_db
open Ddb_workload
open Ddb_parallel
open Alcotest
module Trace = Ddb_obs.Trace
module Metrics = Ddb_obs.Metrics
module Engine = Ddb_engine.Engine
module Budget = Ddb_budget.Budget

(* Tests for the observability layer: latency summaries, the trace
   recorder (balanced spans, deterministic logical-clock output, probe
   gating), the engine/solver probe sites, the profile table's agreement
   with the stats record, and the pinned scheduler that makes parallel
   traces reproducible. *)

(* --- Histogram summaries --- *)

let metrics_summary_sanity () =
  let s = Metrics.summarize [ 3.; 700.; 0.2; 15.; 15.; 90. ] in
  check int "count" 6 s.Metrics.count;
  check (float 1e-9) "sum" 823.2 s.Metrics.sum;
  check (float 1e-9) "min" 0.2 s.Metrics.min;
  check (float 1e-9) "max" 700. s.Metrics.max;
  (* nearest rank over 0.2 3 15 15 90 700: the 3rd, 6th and 6th smallest *)
  check (float 0.) "p50" 15. s.Metrics.p50;
  check (float 0.) "p90" 700. s.Metrics.p90;
  check (float 0.) "p99" 700. s.Metrics.p99;
  let one = Metrics.summarize [ 4. ] in
  check (list (float 0.)) "one sample" [ 4.; 4.; 4.; 4.; 4. ]
    Metrics.[ one.min; one.p50; one.p90; one.p99; one.max ];
  check int "no samples" 0 (Metrics.summarize []).Metrics.count

(* --- Trace recorder mechanics --- *)

(* Every trace test must stop the global recorder even on failure, or the
   probe flag would leak into unrelated tests. *)
let with_trace ?clock f =
  Trace.start ?clock ();
  Fun.protect ~finally:Trace.stop f

let spans_balanced events =
  let tbl = Hashtbl.create 8 in
  List.for_all
    (fun (tid, _name, ph, _ts) ->
      let d = Option.value (Hashtbl.find_opt tbl tid) ~default:0 in
      match ph with
      | 'B' ->
        Hashtbl.replace tbl tid (d + 1);
        true
      | 'E' ->
        Hashtbl.replace tbl tid (d - 1);
        d > 0
      | _ -> true)
    events
  && Hashtbl.fold (fun _ d acc -> acc && d = 0) tbl true

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let trace_gating () =
  with_trace (fun () -> Trace.instant (Trace.name "during")) |> ignore;
  let n = Trace.events_recorded () in
  check bool "recorded while enabled" true (n >= 2) (* trace.start + during *);
  Trace.begin_ (Trace.name "after.stop");
  Trace.end_ (Trace.name "after.stop");
  check int "probes are no-ops when disabled" n (Trace.events_recorded ());
  check bool "trace.start instant present" true
    (List.exists
       (fun (_, name, ph, _) -> name = "trace.start" && ph = 'i')
       (Trace.dump ()))

(* Spans pair begin and end events per lane, innermost first; a span still
   open when the trace is read is left out. *)
let spans_pair_nested_events () =
  let a = Trace.name "t.a" and b = Trace.name "t.b" and c = Trace.name "t.c" in
  with_trace (fun () ->
      Trace.begin_ a;
      Trace.begin_ b;
      Trace.end_args b [ (Trace.name "k", Trace.Int 7) ];
      Trace.end_ a;
      Trace.begin_ c);
  check
    (list (pair string int))
    "closed spans with logical durations"
    [ ("t.b", 1); ("t.a", 3) ]
    (List.map (fun (s : Trace.span) -> (s.name, s.dur)) (Trace.spans ()));
  check bool "end-event args kept" true
    (List.exists
       (fun (s : Trace.span) -> s.args = [ ("k", Trace.Int 7) ])
       (Trace.spans ()))

let traced_engine_run () =
  with_trace (fun () ->
      let db = Random_db.with_integrity ~seed:11 ~num_vars:5 in
      let eng = Engine.create () in
      let lits =
        List.concat_map
          (fun x -> Ddb_logic.Lit.[ Neg x; Pos x ])
          (List.init (Db.num_vars db) Fun.id)
      in
      List.iter
        (fun sem ->
          List.iter
            (fun l -> ignore (Ddb_core.Registry.infer_literal_in eng ~sem db l))
            lits)
        (Ddb_core.Registry.applicable_names db);
      (* the textbook Σ₂ᵖ route: QBF construction, then CEGAR *)
      ignore (Ddb_core.Qbf_encodings.gcwa_refutes_neg_literal_qbf db 0));
  (Trace.dump (), Trace.to_string ())

let engine_spans_present () =
  let events, json = traced_engine_run () in
  check bool "balanced" true (spans_balanced events);
  let have n = List.exists (fun (_, name, _, _) -> name = n) events in
  check bool "scope spans" true (have "scope.gcwa");
  check bool "oracle op spans" true (have "engine.sat" || have "engine.support");
  check bool "solver spans" true (have "sat.solve");
  check bool "theory compile spans" true (have "sat.compile");
  check bool "QBF encode and CEGAR spans" true
    (have "qbf.encode" && have "qbf.cegar");
  (* the memoizing engine answers repeated queries from cache, and the
     span's cache_hit attribute records it *)
  check bool "cache_hit attr serialized" true
    (contains json {|"cache_hit":true|} && contains json {|"cache_hit":false|});
  check bool "theory attr serialized" true (contains json {|"theory":|});
  check bool "conflict deltas serialized" true (contains json {|"conflicts":|})

let traces_byte_identical () =
  let _, a = traced_engine_run () in
  let _, b = traced_engine_run () in
  check bool "same workload, byte-identical logical-clock trace" true (a = b);
  check bool "logical clock recorded in metadata" true
    (contains a {|"clock":"logical"|})

let pinned_batch_trace_deterministic () =
  let db = Random_db.with_integrity ~seed:19 ~num_vars:6 in
  let run () =
    with_trace (fun () ->
        Batch.with_batch ~jobs:4 ~pinned:true (fun b ->
            ignore (Batch.literal_sweep b db)));
    (Trace.dump (), Trace.to_string ())
  in
  let events, a = run () in
  let _, b = run () in
  check bool "jobs:4 pinned trace is byte-identical across runs" true (a = b);
  check bool "balanced per worker lane" true (spans_balanced events);
  let tids =
    List.sort_uniq compare (List.map (fun (tid, _, _, _) -> tid) events)
  in
  check (list int) "worker lanes 0..3" [ 0; 1; 2; 3 ] tids;
  check bool "pool task spans" true
    (List.exists (fun (_, name, _, _) -> name = "pool.task") events)

(* --- the pinned scheduler --- *)

let map_pinned_placement () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let got =
            Parallel.map_in pool ~pinned:true
              (fun ~worker k -> (worker, k * k))
              (List.init 23 Fun.id)
          in
          List.iteri
            (fun k (w, sq) ->
              check int (Printf.sprintf "jobs:%d item %d worker" jobs k)
                (k mod jobs) w;
              check int "value" (k * k) sq)
            got))
    [ 1; 3; 4 ]

let pinned_sweep_equals_chunked () =
  let db = Random_db.with_integrity ~seed:7 ~num_vars:6 in
  let chunked =
    Batch.with_batch ~jobs:4 (fun b -> Batch.literal_sweep b db)
  in
  let pinned =
    Batch.with_batch ~jobs:4 ~pinned:true (fun b -> Batch.literal_sweep b db)
  in
  let answer =
    testable (fun fmt a -> Fmt.string fmt (Budget.string_of_answer a))
      Budget.answer_equal
  in
  let lit =
    testable (fun fmt l -> Ddb_logic.Lit.pp fmt l) Ddb_logic.Lit.equal
  in
  check
    (list (pair string (list (pair lit answer))))
    "pinned placement changes nothing observable" chunked pinned

(* --- the profile table agrees with the stats record ---

   [ddbtool profile]'s rows are folded from the op spans of a traced
   sweep; the engine's stats record counts the same ops.  At jobs 1 and at
   pinned jobs 2: the [engine.*] rows' counts sum to [oracle_calls]; on
   cached shards their hits and misses sum to [cache_hits] and
   [cache_misses]; on a definite-Horn database the [fastpath.*] rows'
   counts sum to [fastpath_hits]. *)

let traced_sweep ~jobs ~cache db =
  let totals =
    with_trace (fun () ->
        Batch.with_batch ~jobs ~pinned:true ~cache (fun b ->
            ignore (Batch.literal_sweep b db);
            ignore (Batch.exists_sweep b db);
            Batch.totals b))
  in
  (Metrics.op_rows (Trace.spans ()), totals)

let sum_rows prefix f rows =
  List.fold_left
    (fun acc (r : Metrics.row) ->
      if String.starts_with ~prefix r.op then acc + f r else acc)
    0 rows

let profile_rows_match_stats () =
  let count (r : Metrics.row) = r.latency.Metrics.count in
  List.iter
    (fun jobs ->
      let at what = Printf.sprintf "jobs %d: %s" jobs what in
      let db = Random_db.with_integrity ~seed:13 ~num_vars:5 in
      List.iter
        (fun cache ->
          let rows, st = traced_sweep ~jobs ~cache db in
          check bool (at "engine rows present") true
            (sum_rows "engine." count rows > 0);
          check int (at "engine counts = oracle_calls") st.Engine.oracle_calls
            (sum_rows "engine." count rows);
          if cache then begin
            check int (at "hits = cache_hits") st.Engine.cache_hits
              (sum_rows "engine." (fun r -> r.hits) rows);
            check int (at "misses = cache_misses") st.Engine.cache_misses
              (sum_rows "engine." (fun r -> r.misses) rows)
          end)
        [ true; false ];
      let horn = Random_db.definite ~seed:5 ~num_vars:6 () in
      let rows, st = traced_sweep ~jobs ~cache:true horn in
      check bool (at "fast-path cells taken") true (st.Engine.fastpath_hits > 0);
      check int (at "fastpath counts = fastpath_hits") st.Engine.fastpath_hits
        (sum_rows "fastpath." count rows))
    [ 1; 2 ]

(* The fold itself: op spans only, hits and misses off [cache_hit], and a
   span that ended [unwound] left out. *)
let op_rows_fold () =
  let span ?(args = []) name dur = { Trace.name; dur; args } in
  let rows =
    Metrics.op_rows
      [
        span "engine.sat" 4 ~args:[ ("cache_hit", Trace.Bool true) ];
        span "scope.gcwa" 50;
        span "engine.sat" 2 ~args:[ ("cache_hit", Trace.Bool false) ];
        span "engine.sat" 9 ~args:[ ("unwound", Trace.Bool true) ];
        span "fastpath.gcwa/literal" 1;
        span "sat.solve" 3;
      ]
  in
  check
    (list (pair string (list int)))
    "rows"
    [ ("engine.sat", [ 2; 1; 1; 6 ]); ("fastpath.gcwa/literal", [ 1; 0; 0; 1 ]) ]
    (List.map
       (fun (r : Metrics.row) ->
         ( r.op,
           [ r.latency.Metrics.count; r.hits; r.misses;
             int_of_float r.latency.Metrics.sum ] ))
       rows)

(* A span's [cache_hit] is its own op's memo lookup: an op that misses
   while an op nested in its compute hits reports a miss, the nested op a
   hit, and the profile rows still sum to the stats record. *)
let nested_op_own_lookup () =
  let db = Random_db.with_integrity ~seed:13 ~num_vars:5 in
  let eng = Engine.create () in
  let spans =
    with_trace (fun () ->
        ignore (Engine.sat eng db);
        ignore
          (Engine.cached_bool eng ~op:(Engine.op "outer") db (fun () -> Engine.sat eng db)));
    Trace.spans ()
  in
  let hits name =
    List.filter_map
      (fun (s : Trace.span) ->
        if s.name <> name then None
        else
          match List.assoc_opt "cache_hit" s.args with
          | Some (Trace.Bool b) -> Some b
          | _ -> None)
      spans
  in
  check (list bool) "engine.sat: a miss, then the nested hit" [ false; true ]
    (hits "engine.sat");
  check (list bool) "engine.outer: its own miss" [ false ] (hits "engine.outer");
  let rows = Metrics.op_rows spans and st = Engine.totals eng in
  check int "hits = cache_hits" st.Engine.cache_hits
    (sum_rows "engine." (fun r -> r.hits) rows);
  check int "misses = cache_misses" st.Engine.cache_misses
    (sum_rows "engine." (fun r -> r.misses) rows)

(* A budget trip inside an op ends its span [unwound]: the trace stays
   balanced, and the op is not counted. *)
let tripped_ops_unwound () =
  let db = Random_db.with_integrity ~seed:13 ~num_vars:5 in
  let events, spans =
    with_trace (fun () ->
        let eng = Engine.create ~cache:false () in
        List.iter
          (fun sem ->
            List.iter
              (fun x ->
                ignore
                  (Engine.budgeted eng (Budget.limits ~ticks:3 ()) ~sem
                     (fun () ->
                       Ddb_core.Registry.infer_literal_in eng ~sem db
                         (Ddb_logic.Lit.Neg x))))
              (List.init (Db.num_vars db) Fun.id))
          (Ddb_core.Registry.applicable_names db));
    (Trace.dump (), Trace.spans ())
  in
  check bool "balanced" true (spans_balanced events);
  let engine_spans =
    List.filter
      (fun (s : Trace.span) -> String.starts_with ~prefix:"engine." s.name)
      spans
  in
  let unwound =
    List.length
      (List.filter
         (fun (s : Trace.span) -> List.mem_assoc "unwound" s.args)
         engine_spans)
  in
  check bool "some op unwound" true (unwound > 0);
  check int "unwound ops not counted"
    (List.length engine_spans - unwound)
    (sum_rows "engine." (fun r -> r.latency.Metrics.count)
       (Metrics.op_rows spans))

let suites =
  [
    ( "obs.metrics",
      [
        test_case "summary: count/sum/extrema/exact percentiles" `Quick
          metrics_summary_sanity;
      ] );
    ( "obs.trace",
      [
        test_case "probes record only while enabled" `Quick trace_gating;
        test_case "spans pair nested begin/end events" `Quick
          spans_pair_nested_events;
        test_case "engine run: balanced spans with oracle/solver probes"
          `Quick engine_spans_present;
        test_case "logical clock: byte-identical traces across runs" `Quick
          traces_byte_identical;
        test_case "jobs:4 pinned batch trace is deterministic" `Quick
          pinned_batch_trace_deterministic;
      ] );
    ( "obs.pinned",
      [
        test_case "map_in ~pinned places item k on worker k mod jobs" `Quick
          map_pinned_placement;
        test_case "pinned sweep = chunked sweep" `Quick
          pinned_sweep_equals_chunked;
      ] );
    ( "obs.profile",
      [
        test_case "span rows sum to the stats record (jobs 1, pinned 2)"
          `Quick profile_rows_match_stats;
        test_case "op_rows: op spans only, unwound spans skipped" `Quick
          op_rows_fold;
        test_case "a tripped op ends its span unwound" `Quick
          tripped_ops_unwound;
        test_case "a nested op's hit is not the outer op's" `Quick
          nested_op_own_lookup;
      ] );
  ]
