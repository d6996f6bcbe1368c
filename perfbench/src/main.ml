(* The query benchmark: one workload, one seed, one closed-loop run.

     main.exe --workload W --seed N --seconds S --trace 0|1

   One client on one domain issues each op only after the previous one
   returned.  Every op is timed on the monotonic clock from the call into
   the public API to its return, and its answer is checked against the
   known answer.

   CPU speed on a shared machine drifts by up to 2x over seconds, so the
   timed phase recalibrates every ~100 ms with a fixed burst of stdlib-only
   work (list sorting and hashing, no library code) and scales each window's
   latencies to the speed at which the burst takes [reference_us].  The
   scaled figures are the metrics; the raw ones are in the log.

   --trace 0 prints the end-to-end metrics.  --trace 1 runs the same timed
   phase, then replays one cycle of the workload under a wall-clock
   Ddb_obs.Trace with a [bench.op] span around every op, attributes self
   time to the spans the library already emits, times the layers that have
   no span (and the pool, which no workload op reaches) by calling their
   public functions on the workload's databases, and prints the per-layer
   metrics.  Human-readable [metric] and [info]
   lines come first; the last line is the JSON result object. *)

open Ddb_logic
open Ddb_db
module W = Perfbench.Workloads
module Attrib = Perfbench.Attrib
module Summary = Perfbench.Summary
module Engine = Ddb_engine.Engine
module Batch = Ddb_parallel.Batch
module Registry = Ddb_core.Registry
module Oracle = Ddb_core.Oracle_algorithms
module Stats = Ddb_sat.Stats
module Trace = Ddb_obs.Trace

let now () = Monotonic_clock.now ()
let us_since t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e3

(* ------------------------------------------------------------------ *)
(* CPU-speed calibration *)

let reference_us = 1000.
let calib_keys = Array.init 256 (fun i -> i * 7919 land 1023)

(* Shortest of three bursts, in µs.  A burst allocates, sorts and hashes
   small lists and tables, the kind of work a query's fixed overhead does
   (every workload runs on one domain, so its minor collections are its
   own). *)
let calibrate () =
  let burst () =
    let t0 = now () in
    for r = 1 to 40 do
      let l = List.init 256 (fun i -> calib_keys.((i + r) land 255)) in
      let h = Hashtbl.create 64 in
      List.iter (fun k -> Hashtbl.replace h k r) (List.sort_uniq Int.compare l);
      ignore (Sys.opaque_identity (Hashtbl.hash l + Hashtbl.length h))
    done;
    us_since t0
  in
  Float.min (burst ()) (Float.min (burst ()) (burst ()))

(* Factor that scales a duration measured now to the reference speed. *)
let speed_scale () = reference_us /. calibrate ()

(* ------------------------------------------------------------------ *)
(* Counts over one cycle of the workload *)

type counts = {
  mutable ops : int;
  mutable sat : int;
  mutable sigma2 : int;
  mutable conflicts : int;
  mutable propagations : int;
  mutable oracle_calls : int;
  mutable hits : int;
  mutable misses : int;
  mutable fp_hits : int;
  mutable fp_misses : int;
  mutable classifications : int;
  mutable theories : int;
}

let zero_counts () =
  {
    ops = 0;
    sat = 0;
    sigma2 = 0;
    conflicts = 0;
    propagations = 0;
    oracle_calls = 0;
    hits = 0;
    misses = 0;
    fp_hits = 0;
    fp_misses = 0;
    classifications = 0;
    theories = 0;
  }

(* [stats_json] is the only view of the hash-consed theory count. *)
let theories_of_json s =
  let key = "\"theories\":" in
  let k = String.length key in
  let rec find i =
    if i + k > String.length s then 0
    else if String.sub s i k = key then begin
      let j = ref (i + k) in
      while !j < String.length s && s.[!j] >= '0' && s.[!j] <= '9' do
        incr j
      done;
      int_of_string (String.sub s (i + k) (!j - i - k))
    end
    else find (i + 1)
  in
  find 0

let add_engine_stats c (st : Engine.stats) theories =
  c.oracle_calls <- c.oracle_calls + st.Engine.oracle_calls;
  c.hits <- c.hits + st.Engine.cache_hits;
  c.misses <- c.misses + st.Engine.cache_misses;
  c.fp_hits <- c.fp_hits + st.Engine.fastpath_hits;
  c.fp_misses <- c.fp_misses + st.Engine.fastpath_misses;
  c.classifications <- c.classifications + st.Engine.classifications;
  c.theories <- c.theories + theories

let add_engine c e =
  add_engine_stats c (Engine.totals e) (theories_of_json (Engine.stats_json e))

let add_snapshot c (d : Stats.snapshot) =
  c.sat <- c.sat + d.Stats.sat;
  c.sigma2 <- c.sigma2 + d.Stats.sigma2;
  c.conflicts <- c.conflicts + d.Stats.conflicts;
  c.propagations <- c.propagations + d.Stats.propagations

(* ------------------------------------------------------------------ *)
(* Running units *)

(* Run one unit's ops on fresh contexts per the workload's engine
   lifetime.  [wrap] surrounds the timed call (the traced run puts the
   bench.op span there); [on_op] sees each op's index, outcome and
   latency; [on_ctx] sees each engine before it is dropped. *)
let exec_unit ?(limit = max_int) (w : W.t) (u : W.work) ~wrap ~on_op ~on_ctx =
  let shared = match w.W.lifetime with W.Per_unit -> Some (Engine.create ()) | W.Per_op -> None in
  for i = 0 to min limit (Array.length u.W.ops) - 1 do
    let c = match shared with Some c -> c | None -> Engine.create () in
    let t0 = now () in
    let out = try wrap (fun () -> u.W.ops.(i).W.call c) with e -> W.Raised (Printexc.to_string e) in
    let dt = us_since t0 in
    on_op i out dt;
    if shared = None then on_ctx c
  done;
  Option.iter on_ctx shared

let no_wrap f = f ()

(* Set-up: generate the instances, create the engines and warm up (the
   first ops of every few units).  Run [reps] times, each scaled by a
   calibration taken just before it; the last workload is kept and the
   median (scaled, raw) times reported. *)
let setup name ~seed ~reps =
  let scaled = Array.make reps 0. and raw = Array.make reps 0. in
  let last = ref None in
  for r = 0 to reps - 1 do
    let scale = speed_scale () in
    let t0 = now () in
    let w = W.make name ~seed in
    let ops, stride = w.W.warmup in
    Array.iteri
      (fun k u ->
        if k mod stride = 0 then
          exec_unit ~limit:ops w u ~wrap:no_wrap ~on_op:(fun _ _ _ -> ()) ~on_ctx:ignore)
      w.W.units;
    raw.(r) <- us_since t0 /. 1e6;
    scaled.(r) <- raw.(r) *. scale;
    last := Some w
  done;
  (Option.get !last, Summary.median scaled, Summary.median raw)

(* ------------------------------------------------------------------ *)
(* The timed phase *)

type timed = {
  samples : float array; (* µs per op, scaled *)
  raw : float array; (* µs per op, as measured *)
  busy_s : float; (* timed-phase seconds outside calibration, scaled *)
  raw_busy_s : float;
  cycles : int;
  first : W.outcome array; (* cycle 1's outcomes, by op index *)
  same_as_first : int array; (* runs that repeated cycle 1's outcome *)
  diverged : int; (* runs that did not *)
  counts : counts; (* over cycle 1 *)
  heap_words : int; (* top of the major heap after cycle 1 *)
  speeds : float array; (* every calibration's scale factor *)
}

let offsets (w : W.t) =
  let off = Array.make (Array.length w.W.units) 0 in
  let acc = ref 0 in
  Array.iteri
    (fun k (u : W.work) ->
      off.(k) <- !acc;
      acc := !acc + Array.length u.W.ops)
    w.W.units;
  off

(* Closed loop over the units, cycling, until a cycle ends after [seconds]
   have passed and at least [min_ops] ops completed: whole cycles only, so
   every database weighs the same in the percentiles.
   Calibrations fall on unit boundaries every [calib_every] units, so a
   single-domain run allocates the same way on every run of a seed and the
   heap after cycle 1 repeats. *)
let timed_phase (w : W.t) ~seconds ~min_ops =
  let total = W.ops w in
  let off = offsets w in
  let first = Array.make total (W.Bool false) and same_as_first = Array.make total 0 in
  let diverged = ref 0 and counts = zero_counts () and heap_words = ref 0 in
  let samples = Summary.buf () and raw = Summary.buf () and speeds = Summary.buf () in
  (* A window's samples wait in [pending] until the calibration that ends
     the window; they are scaled by the mean of its two calibrations. *)
  let pending = Summary.buf () in
  let scale = ref (speed_scale ()) and window = ref (now ()) in
  let busy = ref 0. and raw_busy = ref 0. in
  let recalibrate () =
    let d = us_since !window in
    let s1 = speed_scale () in
    let s = (!scale +. s1) /. 2. in
    for i = 0 to pending.Summary.len - 1 do
      Summary.push samples (pending.Summary.data.(i) *. s)
    done;
    pending.Summary.len <- 0;
    raw_busy := !raw_busy +. d;
    busy := !busy +. (d *. s);
    Summary.push speeds s1;
    scale := s1;
    window := now ()
  in
  let cycles = ref 0 and k = ref 0 and units_run = ref 0 in
  let before = Stats.snapshot () in
  let t0 = now () in
  let finished () =
    !k = 0 && !cycles >= 1 && raw.Summary.len >= min_ops && us_since t0 >= seconds *. 1e6
  in
  while not (finished ()) do
    if !units_run > 0 && !units_run mod w.W.calib_every = 0 then recalibrate ();
    let first_cycle = !cycles = 0 in
    exec_unit w w.W.units.(!k) ~wrap:no_wrap
      ~on_op:(fun i out dt ->
        Summary.push pending dt;
        Summary.push raw dt;
        let j = off.(!k) + i in
        if first_cycle then begin
          first.(j) <- out;
          same_as_first.(j) <- 1
        end
        else if out = first.(j) then same_as_first.(j) <- same_as_first.(j) + 1
        else incr diverged)
      ~on_ctx:(fun e -> if first_cycle then add_engine counts e);
    incr k;
    incr units_run;
    if !k = Array.length w.W.units then begin
      if first_cycle then begin
        add_snapshot counts (Stats.delta before);
        counts.ops <- total;
        heap_words := (Gc.quick_stat ()).Gc.top_heap_words
      end;
      incr cycles;
      k := 0
    end
  done;
  recalibrate ();
  {
    samples = Summary.contents samples;
    raw = Summary.contents raw;
    busy_s = !busy /. 1e6;
    raw_busy_s = !raw_busy /. 1e6;
    cycles = !cycles;
    first;
    same_as_first;
    diverged = !diverged;
    counts;
    heap_words = !heap_words;
    speeds = Summary.contents speeds;
  }

(* ------------------------------------------------------------------ *)
(* Known answers *)

type verdict = {
  failed : int;
  checked : int; (* distinct ops checked *)
  wrong : string list; (* first few wrong ops, for the log *)
  formula_in_ops : int;
  worst_slack : int; (* min over *_formula_in ops of log_bound − Σ₂ᵖ calls *)
  known_s : float;
}

(* Each distinct op's cycle-1 outcome against its known answer; a wrong
   one fails every run that repeated it.  A *_formula_in op also fails if
   it used more Σ₂ᵖ calls than the paper's ⌈log₂(|P|+1)⌉+1 bound. *)
let check_answers (w : W.t) (t : timed) =
  let t0 = now () in
  let off = offsets w in
  let failed = ref t.diverged and wrong = ref [] in
  let formula_in = ref 0 and slack = ref max_int in
  Array.iteri
    (fun k (u : W.work) ->
      Array.iteri
        (fun i (op : W.op) ->
          let j = off.(k) + i in
          let got = t.first.(j) in
          let expected = try op.W.reference () with e -> W.Raised (Printexc.to_string e) in
          let signature_ok =
            match got with
            | W.Oracle { queries; p_size; _ } ->
              incr formula_in;
              let s = Oracle.log_bound p_size - queries in
              slack := min !slack s;
              s >= 0
            | _ -> true
          in
          let ok =
            signature_ok && match expected with W.Raised _ -> false | e -> W.answer_of got = e
          in
          if not ok then begin
            failed := !failed + t.same_as_first.(j);
            if List.length !wrong < 5 then
              wrong :=
                Printf.sprintf "%s: got %s, known %s" op.W.label (W.render got)
                  (W.render expected)
                :: !wrong
          end)
        u.W.ops)
    w.W.units;
  {
    failed = !failed;
    checked = Array.length t.first;
    wrong = List.rev !wrong;
    formula_in_ops = !formula_in;
    worst_slack = (if !formula_in = 0 then 0 else !slack);
    known_s = us_since t0 /. 1e6;
  }

let answers_digest (t : timed) =
  Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list (Array.map W.render t.first))))

(* ------------------------------------------------------------------ *)
(* The traced cycle *)

let n_op = Trace.name "bench.op"

type traced = {
  attrib : Attrib.t;
  scale : float; (* speed scale for the traced cycle's durations *)
  traced_us : float; (* Σ latency over the traced cycle, scaled *)
  events : int;
  dropped : int;
  t_diverged : int;
}

let traced_cycle (w : W.t) (t : timed) =
  let off = offsets w in
  let traced_us = ref 0. and diverged = ref 0 in
  let scale = speed_scale () in
  Trace.start ~clock:Trace.Wall ();
  Array.iteri
    (fun k u ->
      exec_unit w u
        ~wrap:(fun f -> Trace.with_span n_op f)
        ~on_op:(fun i out dt ->
          traced_us := !traced_us +. (dt *. scale);
          if out <> t.first.(off.(k) + i) then incr diverged)
        ~on_ctx:ignore)
    w.W.units;
  Trace.stop ();
  let events = Trace.events_recorded () and dropped = Trace.dropped () in
  let attrib = Attrib.of_events ~root:"bench.op" (Trace.dump ()) in
  { attrib; scale; traced_us = !traced_us; events; dropped; t_diverged = !diverged }

(* ------------------------------------------------------------------ *)
(* Layers timed from outside, on the workload's own databases *)

(* The pool layer: Batch.literal_sweep at jobs:2 (pinned placement) on the
   databases of the workload's first two units, traced like the cycle.
   Returns whether the trace accounts, Σ pool.task self time and the
   sweeps' wall time not covered by the busiest worker's tasks, in ms at
   the reference speed. *)
let parallel_side (w : W.t) =
  let dbs = w.W.units.(0).W.dbs @ w.W.units.(1).W.dbs in
  let scale = speed_scale () in
  Batch.with_batch ~jobs:2 ~pinned:true (fun b ->
      Trace.start ~clock:Trace.Wall ();
      List.iter
        (fun db ->
          Trace.with_span n_op (fun () -> ignore (Batch.literal_sweep b ~sems:(W.sems_of db) db)))
        dbs;
      Trace.stop ());
  let a = Attrib.of_events ~root:"bench.op" (Trace.dump ()) in
  let busiest =
    List.fold_left (fun m tid -> max m (Attrib.tid_total a ~tid "pool.task")) 0
      (Attrib.tids_with a "pool.task")
  in
  let ms us = float_of_int us /. 1e3 *. scale in
  (Attrib.accounts a, ms (Attrib.find a "pool.task").Attrib.self, ms (a.Attrib.root_total - busiest))

let per_call_us ~reps f =
  ignore (Sys.opaque_identity (f ()));
  let t0 = now () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  us_since t0 /. float_of_int reps

let median_over xs f = Summary.median (Array.of_list (List.map f xs))

let outside_timings (w : W.t) =
  let dbs = List.concat_map (fun (u : W.work) -> u.W.dbs) (Array.to_list w.W.units) in
  let eng = Engine.create () in
  let scale = speed_scale () in
  List.map
    (fun (name, v) -> (name, v *. scale, "us"))
    [
      ( "engine.theory_key_us",
        median_over dbs (fun db -> per_call_us ~reps:20 (fun () -> Engine.theory_key eng db)) );
      ( "core.registry_lookup_us",
        median_over Registry.names (fun sem ->
            per_call_us ~reps:20 (fun () -> Registry.find_in eng sem)) );
      ( "frag.classify_us",
        median_over dbs (fun db -> per_call_us ~reps:5 (fun () -> Ddb_frag.Frag.classify db)) );
      ( "sat.solver_build_us",
        median_over dbs (fun db -> per_call_us ~reps:5 (fun () -> Db.solver db)) );
      ( "sat.find_minimal_us",
        median_over dbs (fun db ->
            let th = Db.theory db in
            let part = Partition.minimize_all (Db.num_vars db) in
            per_call_us ~reps:3 (fun () -> Ddb_sat.Minimal.find_minimal th part)) );
    ]

(* ------------------------------------------------------------------ *)
(* Output *)

let fnum v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_metrics metrics =
  List.iter (fun (name, v, unit) -> Printf.printf "metric %-30s %16.6f %s\n" name v unit) metrics

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (fnum v) unit)
          metrics))

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let info fields =
  Printf.printf "info {%s}\n"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields))

(* Engine ops with a per-layer self time.  [in_some_minimal] and
   [minimal_models] open spans only on cache-disabled engines or for
   enumeration queries no workload asks, so their self time goes to the
   log ([idle_engine_ops_self_us]) rather than into constant-zero metrics. *)
let engine_ops = [ "sat"; "aug_sat"; "aug_entails"; "support"; "mm_entails"; "non_entailed" ]
let idle_engine_ops = [ "in_some_minimal"; "minimal_models" ]

let layer_metrics (w : W.t) (t : timed) (tr : traced) (task_ms, overhead_ms) =
  let a = tr.attrib in
  let ms us = float_of_int us /. 1e3 *. tr.scale in
  let c = t.counts in
  let per_op x = ratio x c.ops in
  List.map
    (fun op -> ("engine." ^ op ^ ".self_ms", ms (Attrib.find a ("engine." ^ op)).Attrib.self, "ms"))
    engine_ops
  @ [
      ("engine.cache_hit_ratio", ratio c.hits (c.hits + c.misses), "ratio");
      ("engine.oracle_calls_per_op", per_op c.oracle_calls, "count");
      ("engine.theories", float_of_int c.theories, "count");
      ("core.scope.self_ms", ms (Attrib.self_with_prefix a "scope."), "ms");
      ("fastpath.hit_ratio", ratio c.fp_hits (c.fp_hits + c.fp_misses), "ratio");
      ("fastpath.self_ms", ms (Attrib.self_with_prefix a "fastpath."), "ms");
      ("frag.classifications", float_of_int c.classifications, "count");
      ("sat.solve.self_ms", ms (Attrib.find a "sat.solve").Attrib.self, "ms");
      ("sat.conflicts_per_op", per_op c.conflicts, "count");
      ("sat.propagations_per_op", per_op c.propagations, "count");
      ("sat_calls_per_op", per_op c.sat, "count");
      ("sigma2_calls_per_op", per_op c.sigma2, "count");
      ( "qbf.cegar.rounds_per_call",
        ratio (Attrib.find a "qbf.cegar.round").Attrib.count (Attrib.find a "qbf.cegar").Attrib.count,
        "count" );
      ("qbf.cegar.self_ms", ms (Attrib.self_with_prefix a "qbf.cegar"), "ms");
      ("pool.task.self_ms", task_ms, "ms");
      ("parallel.overhead_ms", overhead_ms, "ms");
      ("bench.op.self_ms", ms (Attrib.find a "bench.op").Attrib.self, "ms");
      ( "trace_overhead_ratio",
        tr.traced_us /. float_of_int (W.ops w) /. Summary.mean t.samples,
        "ratio" );
    ]
  @ outside_timings w

let run ~workload ~seed ~seconds ~trace =
  let w, setup_s, raw_setup_s = setup workload ~seed ~reps:(if trace then 1 else 3) in
  let t = timed_phase w ~seconds ~min_ops:1000 in
  let tr = if trace then Some (traced_cycle w t) else None in
  let v = check_answers w t in
  let n = Array.length t.samples in
  let sorted = Summary.sorted_copy t.samples and raw = Summary.sorted_copy t.raw in
  let traced_ops, traced_failed = match tr with Some r -> (W.ops w, r.t_diverged) | None -> (0, 0) in
  let attempted = n + traced_ops and failed = v.failed + traced_failed in
  let c = t.counts in
  info
    [
      ("workload", Printf.sprintf "%S" workload);
      ("seed", string_of_int seed);
      ("instances_digest", Printf.sprintf "%S" (W.instance_digest w));
      ("answers_digest", Printf.sprintf "%S" (answers_digest t));
      ("ops_per_cycle", string_of_int (W.ops w));
      ("cycles", string_of_int t.cycles);
      ("samples", string_of_int n);
      ("samples_beyond_p99", string_of_int (Summary.beyond sorted 99.));
      ("ops_attempted", string_of_int attempted);
      ("failed_ratio", fnum (ratio failed attempted));
      ("known_answers_checked", string_of_int v.checked);
      ("known_answers_s", fnum v.known_s);
      ("formula_in_ops", string_of_int v.formula_in_ops);
      ("sigma2_log_bound_worst_slack", string_of_int v.worst_slack);
      ("sat_calls_per_op", fnum (ratio c.sat c.ops));
      ("sigma2_calls_per_op", fnum (ratio c.sigma2 c.ops));
      ("engine_oracle_calls", string_of_int c.oracle_calls);
      ("engine_cache_hits", string_of_int c.hits);
      ("engine_cache_lookups", string_of_int (c.hits + c.misses));
      ("fastpath_hits", string_of_int c.fp_hits);
      ("fastpath_dispatches", string_of_int (c.fp_hits + c.fp_misses));
      ("classifications", string_of_int c.classifications);
      ("theories", string_of_int c.theories);
      ("raw_latency_p50_us", fnum (Summary.percentile raw 50.));
      ("raw_latency_p99_us", fnum (Summary.percentile raw 99.));
      ("raw_throughput_ops", fnum (float_of_int n /. t.raw_busy_s));
      ("raw_setup_s", fnum raw_setup_s);
      ("speed_scale_median", fnum (Summary.median t.speeds));
      ("calibrations", string_of_int (Array.length t.speeds));
    ];
  List.iter (fun s -> Printf.printf "wrong %s\n" s) v.wrong;
  let correct = ref (failed = 0) in
  let metrics =
    match tr with
    | None ->
      [
        ("latency_p50_us", Summary.percentile sorted 50., "us");
        ("latency_p99_us", Summary.percentile sorted 99., "us");
        ("throughput_ops", float_of_int n /. t.busy_s, "1/s");
        ("peak_heap_mb", float_of_int (t.heap_words * (Sys.word_size / 8)) /. 1e6, "MB");
        ("setup_s", setup_s, "s");
      ]
    | Some r ->
      let a = r.attrib in
      info
        [
          ("trace_events", string_of_int r.events);
          ("trace_dropped", string_of_int r.dropped);
          ("trace_unbalanced", string_of_int a.Attrib.unbalanced);
          ("bench_op_spans", string_of_int a.Attrib.root_count);
          ("traced_e2e_us", string_of_int a.Attrib.root_total);
          ("self_time_inside_ops_us", string_of_int a.Attrib.under_root_self);
          ("self_time_outside_ops_us", string_of_int a.Attrib.outside_root_self);
          ( "idle_engine_ops_self_us",
            string_of_int
              (List.fold_left
                 (fun acc op -> acc + (Attrib.find a ("engine." ^ op)).Attrib.self)
                 0 idle_engine_ops) );
        ];
      let pool_ok, task_ms, overhead_ms = parallel_side w in
      if not (Attrib.accounts a && r.dropped = 0 && a.Attrib.root_count = W.ops w && pool_ok)
      then begin
        print_endline "wrong trace: self times do not account for the traced end-to-end time";
        correct := false
      end;
      layer_metrics w t r (task_ms, overhead_ms)
  in
  print_metrics metrics;
  print_result ~correct:!correct ~attempted ~failed metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Symbol (W.names, fun s -> workload := s), " workload to run");
      ("--seed", Arg.Set_int seed, "N instance seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if !workload = "" then begin
    prerr_endline "main.exe: --workload is required";
    exit 2
  end;
  run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
