(* Self-time attribution on synthetic and recorded traces. *)

module Attrib = Perfbench.Attrib
module Trace = Ddb_obs.Trace

let fails = ref 0

let check name cond =
  if not cond then begin
    incr fails;
    Printf.printf "FAIL %s\n" name
  end

let self a name = (Attrib.find a name).Attrib.self

(* bench.op [0,15] > scope.gcwa [2,12] > engine.sat [3,10] > sat.solve [4,9],
   then a sibling engine.support [12,14]. *)
let nested =
  [
    (0, "trace.start", 'i', 0);
    (0, "bench.op", 'B', 0);
    (0, "scope.gcwa", 'B', 2);
    (0, "engine.sat", 'B', 3);
    (0, "sat.solve", 'B', 4);
    (0, "sat.solve", 'E', 9);
    (0, "engine.sat", 'E', 10);
    (0, "scope.gcwa", 'E', 12);
    (0, "engine.support", 'B', 12);
    (0, "engine.support", 'E', 14);
    (0, "bench.op", 'E', 15);
  ]

let test_nested () =
  let a = Attrib.of_events ~root:"bench.op" nested in
  check "sat.solve self" (self a "sat.solve" = 5);
  check "engine.sat self" (self a "engine.sat" = 2);
  check "scope self" (self a "scope.gcwa" = 3);
  check "support self" (self a "engine.support" = 2);
  check "glue" (self a "bench.op" = 3);
  check "root total" (a.Attrib.root_total = 15 && a.Attrib.root_count = 1);
  check "identity" (Attrib.accounts a);
  check "prefix" (Attrib.self_with_prefix a "engine." = 4);
  check "no outside" (a.Attrib.outside_root_self = 0)

(* A client buffer and a worker buffer that share tid 0 are concatenated;
   the worker's spans sit outside every root. *)
let test_shared_tid () =
  let events =
    [
      (0, "bench.op", 'B', 100);
      (0, "bench.op", 'E', 130);
      (0, "pool.task", 'B', 101);
      (0, "scope.cwa", 'B', 102);
      (0, "scope.cwa", 'E', 110);
      (0, "pool.task", 'E', 112);
      (1, "pool.task", 'B', 101);
      (1, "pool.task", 'E', 125);
    ]
  in
  let a = Attrib.of_events ~root:"bench.op" events in
  check "shared: identity" (Attrib.accounts a);
  check "shared: glue" (self a "bench.op" = 30);
  check "shared: outside" (a.Attrib.outside_root_self = 11 + 24);
  check "shared: per tid" (Attrib.tid_total a ~tid:0 "pool.task" = 11 && Attrib.tid_total a ~tid:1 "pool.task" = 24)

let test_unbalanced () =
  let a =
    Attrib.of_events ~root:"bench.op"
      [ (0, "bench.op", 'B', 0); (0, "engine.sat", 'B', 1); (0, "bench.op", 'E', 5) ]
  in
  check "unbalanced detected" (a.Attrib.unbalanced > 0 && not (Attrib.accounts a))

(* A real trace from the library's recorder, on its deterministic clock. *)
let test_recorded () =
  let op = Trace.name "bench.op" and inner = Trace.name "engine.sat" in
  let leaf = Trace.name "sat.solve" in
  Trace.start ();
  for _ = 1 to 3 do
    Trace.with_span op (fun () ->
        Trace.with_span inner (fun () -> Trace.with_span leaf ignore);
        Trace.with_span inner ignore)
  done;
  Trace.stop ();
  let a = Attrib.of_events ~root:"bench.op" (Trace.dump ()) in
  check "recorded: identity" (Attrib.accounts a);
  check "recorded: roots" (a.Attrib.root_count = 3);
  check "recorded: counts" ((Attrib.find a "engine.sat").Attrib.count = 6);
  check "recorded: self sums" (a.Attrib.under_root_self = a.Attrib.root_total)

let () =
  test_nested ();
  test_shared_tid ();
  test_unbalanced ();
  test_recorded ();
  if !fails > 0 then exit 1;
  print_endline "attribution: all checks passed"
