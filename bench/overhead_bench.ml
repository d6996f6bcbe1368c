open Ddb_logic
open Ddb_core
open Ddb_workload
module Engine = Ddb_engine.Engine

(* The fixed cost of asking: ns and minor words per call for the clock
   read a scope makes twice, an [Engine.scoped] scope around an empty
   body, and warmed fast-path literal, formula and existence questions on
   the databases of perfbench's [tractable] workload (definite and
   stratified normal, n = 60).  Once a fragment is classified the answer
   itself costs almost nothing, so these are what a P-cell question
   costs.  Each row is a median, min and max over [bursts] bursts of
   [calls] calls at a fixed seed. *)

let seed = 1
let num_vars = 60
let bursts = 7
let calls = 100_000

(* Semantics whose three questions are all routed on each family:
   least-model evaluation on a definite database, perfect-model
   evaluation on a stratified one. *)
let families =
  [
    ( "definite",
      Random_db.definite ~integrity_ratio:0. ~seed ~num_vars (),
      [ "cwa"; "gcwa"; "ddr"; "pws"; "egcwa"; "ccwa"; "ecwa"; "circ"; "dsm" ] );
    ( "stratified",
      Random_db.stratified ~head_max:1 ~seed ~num_vars (),
      [ "perf"; "icwa"; "dsm" ] );
  ]

(* ns and minor words per call of [run calls]. *)
let burst run =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  run calls;
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  let n = Float.of_int calls in
  ((t1 -. t0) *. 1e9 /. n, (w1 -. w0) /. n)

let spread xs =
  let xs = List.sort Float.compare xs in
  (List.nth xs (List.length xs / 2), List.hd xs, List.nth xs (List.length xs - 1))

let clock n =
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Unix.gettimeofday ()
  done;
  ignore (Sys.opaque_identity !acc)

let empty_scope () =
  let eng = Engine.create () and h = Engine.scope "empty" in
  let empty _ () () = () in
  fun n ->
    for _ = 1 to n do
      Engine.scoped eng h empty () ()
    done

(* The three questions on one family, each warmed by one pass over its
   cycle; every timed call must be a fast-path hit. *)
let questions (family, db, sems) =
  let eng = Engine.create () in
  let sems = Array.of_list sems in
  let lits =
    Array.of_list
      (List.concat_map (fun x -> [ Lit.Neg x; Lit.Pos x ]) (List.init num_vars Fun.id))
  in
  let f = Random_db.formula ~seed ~num_vars ~depth:3 in
  let sem i = sems.(i mod Array.length sems) in
  let cycle ask n =
    for i = 0 to n - 1 do
      ignore (Sys.opaque_identity (ask i))
    done
  in
  let hits_only name ask =
    let hits () = (Engine.totals eng).Engine.fastpath_hits in
    cycle ask (Array.length sems * Array.length lits);
    fun n ->
      let h0 = hits () in
      cycle ask n;
      if hits () - h0 <> n then
        failwith (Printf.sprintf "overhead: %s.%s missed the fast path" family name)
  in
  [
    ( family ^ ".literal",
      hits_only "literal" (fun i ->
          Registry.infer_literal_in eng ~sem:(sem i) db
            lits.(i mod Array.length lits)) );
    ( family ^ ".formula",
      hits_only "formula" (fun i -> Registry.infer_formula_in eng ~sem:(sem i) db f) );
    ( family ^ ".exists",
      hits_only "exists" (fun i -> Registry.has_model_in eng ~sem:(sem i) db) );
  ]

let run () =
  Fmt.pr "@.=== Fixed cost of a question (seed %d, %d bursts of %d calls) ===@."
    seed bursts calls;
  Fmt.pr "  %-20s %26s %26s@." "" "ns/call med [min, max]"
    "words/call med [min, max]";
  let rows =
    List.map
      (fun (name, run) ->
        let samples = List.init bursts (fun _ -> burst run) in
        let ((nm, nl, nh) as ns) = spread (List.map fst samples)
        and ((wm, wl, wh) as words) = spread (List.map snd samples) in
        Fmt.pr "  %-20s %8.1f [%7.1f, %7.1f] %8.1f [%7.1f, %7.1f]@." name nm nl nh
          wm wl wh;
        (name, ns, words))
      ([ ("gettimeofday", clock); ("scoped_empty", empty_scope ()) ]
      @ List.concat_map questions families)
  in
  let stat (m, lo, hi) =
    Printf.sprintf {|{"median":%.1f,"min":%.1f,"max":%.1f}|} m lo hi
  in
  let json =
    Printf.sprintf
      {|{"meta":%s,"workload":{"num_vars":%d,"bursts":%d,"calls_per_burst":%d},"rows":[%s]}|}
      (Harness.meta_json ~seed ~jobs:1 ~sems:Registry.names)
      num_vars bursts calls
      (String.concat ","
         (List.map
            (fun (name, ns, words) ->
              Printf.sprintf {|{"name":%S,"ns_per_call":%s,"minor_words_per_call":%s}|}
                name (stat ns) (stat words))
            rows))
  in
  let oc = open_out "BENCH_overhead.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Fmt.pr "  wrote BENCH_overhead.json@.";
  json
