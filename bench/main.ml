(* Benchmark entry point.

     dune exec bench/main.exe              — run everything
     dune exec bench/main.exe -- table1    — only Table 1
     dune exec bench/main.exe -- table2    — only Table 2
     dune exec bench/main.exe -- engine    — memoizing-engine ablation + stats JSON
     dune exec bench/main.exe -- oracle    — Σ₂-oracle log-vs-linear study
     dune exec bench/main.exe -- reductions
     dune exec bench/main.exe -- ablation  — reference vs oracle engine crossover
     dune exec bench/main.exe -- extensions  — brave/WFS/CWA-log studies
     dune exec bench/main.exe -- fastpath  — fragment dispatch vs generic oracle
     dune exec bench/main.exe -- overhead  — fixed cost of a warmed question

   Flags (after the section name):
     --jobs N       worker domains for the pooled sections (table1, table2,
                    ablation); default 1 so timing ladders keep
                    their historical sequential shape
     --json FILE    write the machine-readable sections (engine, fastpath,
                    overhead)
                    to FILE as one JSON object with a self-describing
                    "meta" header
     --trace PREFIX write Chrome trace-event JSON files (Perfetto): one
                    per ladder cell for table1/table2
                    (PREFIX_<table>_<sem>_<task>.json), one for the engine
                    section's traced workload (PREFIX_engine.json)

   See EXPERIMENTS.md for how each section maps to the paper's tables. *)

let usage () =
  prerr_endline
    "usage: main.exe [table1|table2|engine|oracle|reductions|ablation|extensions|fastpath|overhead|all] [--jobs N] [--json FILE] [--trace PREFIX]"

let () =
  let mode = ref "all" and jobs = ref None and json_path = ref None in
  let trace_prefix = ref None in
  let rec parse = function
    | [] -> ()
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some j when j >= 1 -> jobs := Some j
      | _ ->
        usage ();
        exit 1);
      parse rest
    | "--json" :: path :: rest ->
      json_path := Some path;
      parse rest
    | "--trace" :: prefix :: rest ->
      trace_prefix := Some prefix;
      parse rest
    | ("--jobs" | "--json" | "--trace") :: [] ->
      usage ();
      exit 1
    | m :: rest ->
      mode := m;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let mode = !mode and jobs = !jobs in
  let trace_prefix = !trace_prefix in
  let all = mode = "all" in
  let ran = ref false in
  let json_sections = ref [] in
  let section name f =
    if all || mode = name then begin
      ran := true;
      f ()
    end
  in
  (* a section whose runner returns its results as a JSON object *)
  let json_section name f =
    section name (fun () ->
        let json = f () in
        json_sections := (name, json) :: !json_sections)
  in
  section "table1" (Harness.table1 ?jobs ?trace_prefix);
  section "table2" (Harness.table2 ?jobs ?trace_prefix);
  json_section "engine" (Harness.engine_comparison ?trace_prefix);
  section "oracle" Oracle_bench.run;
  section "reductions" Reduction_bench.run;
  section "ablation" (Ablation.run ?jobs);
  section "extensions" Extensions_bench.run;
  json_section "fastpath" Harness.fastpath_bench;
  json_section "overhead" Overhead_bench.run;
  (match !json_path with
  | None -> ()
  | Some path ->
    let meta =
      Harness.meta_json ~seed:100
        ~jobs:(match jobs with Some j -> j | None -> 1)
        ~sems:Ddb_core.Registry.names
    in
    let oc = open_out path in
    Printf.fprintf oc "{%S:%s%s}\n" "meta" meta
      (String.concat ""
         (List.rev_map
            (fun (name, json) -> Printf.sprintf ",%S:%s" name json)
            !json_sections));
    close_out oc;
    Fmt.pr "@.wrote %s@." path);
  if not !ran then begin
    usage ();
    exit 1
  end
