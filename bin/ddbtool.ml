open Ddb_logic
open Ddb_db
open Ddb_core
open Cmdliner

(* ddbtool — command-line front end to the disjunctive database semantics.

     ddbtool classify db.ddb
     ddbtool models db.ddb --semantics egcwa
     ddbtool query db.ddb --semantics gcwa --query "~c"
     ddbtool exists db.ddb --semantics dsm
     ddbtool stats db.ddb [--no-cache] [--jobs 4]
     ddbtool sweep db.ddb [--jobs 4]
     ddbtool semantics

   Database files use the clause syntax of Ddb_logic.Parse:
     a | b :- c, not d.      % rule
     :- a, b.                % integrity clause
     e.                      % fact
   A .dl file is non-ground Datalog in the same syntax, grounded on load:
     win(X) :- move(X, Y), not win(Y).
   Parse errors name the place: file:line:col.                           *)

module Trace = Ddb_obs.Trace
module Metrics = Ddb_obs.Metrics
module Budget = Ddb_budget.Budget

(* --- budgets (every subcommand takes --budget-*/--on-exhaust) ---

   A budget bounds the oracle work of the run: SAT conflicts, a logical
   tick deadline (conflicts + solve calls + CEGAR rounds + engine oracle
   ops), or a wall deadline.  Single-query commands run under one token;
   sweep-shaped commands mint one token per (semantics, query) cell, so a
   pathological cell degrades alone.  Degraded answers print as unknown
   and flip the process exit code to 7 (so scripts can tell a complete
   run from a clipped one). *)

type budget_opts = {
  limits : Budget.limits;
  on_exhaust : [ `Unknown | `Retry | `Fail ];
}

(* Caps and counts are never negative: [--budget-ms=-1] is a usage error,
   not a budget that trips at once, and [--limit=-2] not an empty listing. *)
let non_negative of_string is_non_negative pp =
  let parse s =
    match of_string s with
    | Some x when is_non_negative x -> Ok x
    | _ ->
      Error (`Msg (Printf.sprintf "expected a non-negative number, got %S" s))
  in
  Arg.conv (parse, pp)

let count_conv = non_negative int_of_string_opt (fun n -> n >= 0) Fmt.int

(* [nan >= 0.] is false, so nan is refused too. *)
let ms_conv = non_negative float_of_string_opt (fun ms -> ms >= 0.) Fmt.float

let budget_conflicts_arg =
  Arg.(
    value
    & opt (some count_conv) None
    & info [ "budget-conflicts" ] ~docv:"N"
        ~doc:
          "Abort the oracle work after $(docv) SAT conflicts (summed over \
           solver calls within one budget scope); the answer degrades to \
           unknown (see $(b,--on-exhaust)).")

let budget_ms_arg =
  Arg.(
    value
    & opt (some ms_conv) None
    & info [ "budget-ms" ] ~docv:"MS"
        ~doc:
          "Wall-clock deadline in milliseconds per budget scope (per query \
           cell in sweeps).  Wall deadlines are inherently nondeterministic \
           — prefer $(b,--budget-conflicts)/$(b,--budget-ticks) for \
           reproducible degradation.")

let budget_ticks_arg =
  Arg.(
    value
    & opt (some count_conv) None
    & info [ "budget-ticks" ] ~docv:"N"
        ~doc:
          "Logical deadline: at most $(docv) budget ticks (each SAT \
           conflict, solver call, CEGAR round and engine oracle op is one \
           tick).  Deterministic: the same command degrades the same cells \
           every run, at every --jobs.")

let on_exhaust_arg =
  Arg.(
    value
    & opt (enum [ ("unknown", `Unknown); ("retry", `Retry); ("fail", `Fail) ])
        `Unknown
    & info [ "on-exhaust" ] ~docv:"MODE"
        ~doc:
          "What to do when a budget trips: $(b,unknown) reports the cell \
           as unknown and continues; $(b,retry) retries the cell once with \
           every cap escalated 4x before giving up; $(b,fail) aborts the \
           command with an error.")

let budget_term =
  let make conflicts wall_ms ticks on_exhaust =
    { limits = Budget.limits ?conflicts ?wall_ms ?ticks (); on_exhaust }
  in
  Term.(
    const make $ budget_conflicts_arg $ budget_ms_arg $ budget_ticks_arg
    $ on_exhaust_arg)

(* Count of answers this process degraded to unknown; a non-zero count
   turns exit code 0 into 7 at the very end. *)
let degraded_cells = ref 0

let exit_degraded = 7

(* Run a whole single-query command under one budget token, on
   [Budget.run]'s retry ladder when --on-exhaust retry. *)
let budgeted_run bopts f =
  match Budget.run ~retry:(bopts.on_exhaust = `Retry) bopts.limits f with
  | Ok r -> r
  | Error reason ->
    (* Count the degradation in both modes: under [`Fail] the hard error
       takes the exit code, but the exit hook still reports the degraded
       cell on stderr. *)
    incr degraded_cells;
    if bopts.on_exhaust = `Fail then
      Error
        (`Msg
          (Printf.sprintf "budget exhausted (%s)"
             (Budget.string_of_reason reason)))
    else begin
      Fmt.pr "unknown (%s)@." (Budget.string_of_reason reason);
      Ok ()
    end

(* --- tracing (every subcommand takes --trace/--trace-clock) --- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a structured trace of the run (per-semantics scopes, \
           engine oracle ops, SAT solves, CEGAR rounds, pool tasks) and \
           write it to $(docv) as Chrome trace-event JSON — load it in \
           Perfetto (ui.perfetto.dev) or chrome://tracing.  Worker domains \
           appear as separate tid lanes.")

let trace_clock_arg =
  Arg.(
    value
    & opt
        (enum [ ("logical", Trace.Logical); ("wall", Trace.Wall) ])
        Trace.Logical
    & info [ "trace-clock" ] ~docv:"CLOCK"
        ~doc:
          "Trace timestamp source: $(b,logical) (per-domain probe ticks — \
           deterministic, the trace is byte-identical across runs of the \
           same command) or $(b,wall) (real microseconds).")

(* Run [f] under an active trace when --trace was given; the file is
   written after [f] returns (pool domains have joined by then, so every
   worker buffer is quiescent). *)
let traced trace clock f =
  match trace with
  | None -> f ()
  | Some path ->
    Trace.start ~clock ();
    let res = Fun.protect ~finally:Trace.stop f in
    Trace.write_file path;
    Fmt.epr "trace: %d event(s) -> %s@." (Trace.events_recorded ()) path;
    res

(* Run [read] on an input file, turning the errors of reading, parsing and
   grounding it into messages. *)
let read_input read path =
  try Ok (read path) with
  | Parse.Error msg -> Error (`Msg (Printf.sprintf "parse error: %s" msg))
  | Ddb_ground.Grounder.Error msg ->
    Error (`Msg (Printf.sprintf "grounding error: %s" msg))
  | Sys_error msg -> Error (`Msg msg)

(* Files ending in .dl are non-ground Datalog and are grounded on load;
   anything else is parsed as propositional clauses. *)
let load_db =
  read_input (fun path ->
      if Filename.check_suffix path ".dl" then
        (Ddb_ground.Grounder.of_file path).Ddb_ground.Grounder.db
      else Db.of_file path)

let db_arg =
  let print ppf _ = Fmt.string ppf "<db>" in
  Arg.(
    required
    & pos 0 (some (conv (load_db, print))) None
    & info [] ~docv:"DB"
        ~doc:
          "Database file: .ddb clause syntax, or non-ground Datalog if the \
           name ends in .dl (grounded on load).")

let semantics_arg =
  let parse name =
    match Registry.find name with
    | Some s -> Ok s
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown semantics %S (try: %s)" name
             (String.concat ", " Registry.names)))
  in
  let print ppf (s : Semantics.t) = Fmt.string ppf s.Semantics.name in
  Arg.(
    value
    & opt (conv (parse, print)) (Option.get (Registry.find "egcwa"))
    & info [ "s"; "semantics" ] ~docv:"SEM"
        ~doc:
          (Printf.sprintf "Semantics to evaluate under; one of: %s."
             (String.concat ", " Registry.names)))

let limit_arg =
  Arg.(
    value
    & opt (some count_conv) None
    & info [ "limit" ] ~docv:"N" ~doc:"Report at most $(docv) models.")

let check_applicable (sem : Semantics.t) db =
  if sem.Semantics.applicable db then Ok ()
  else
    Error
      (`Msg
        (Printf.sprintf
           "the %s semantics is not applicable to this database (e.g. it \
            requires a negation-free or stratified database)"
           sem.Semantics.name))

(* --- classify --- *)

let classify db =
  let vocab = Db.vocab db in
  Fmt.pr "clauses:            %d@." (Db.size db);
  Fmt.pr "atoms:              %d@." (Db.num_vars db);
  Fmt.pr "disjunctive:        %b@." (Db.has_disjunction db);
  Fmt.pr "integrity clauses:  %b@." (Db.has_integrity db);
  Fmt.pr "negation:           %b@." (Db.has_negation db);
  let kind =
    if Db.is_positive_ddb db then "positive DDB (Table 1 fragment)"
    else if Db.is_dddb db then "DDDB (disjunctive deductive database)"
    else
      match Stratify.compute db with
      | Some _ -> "DSDB (disjunctive stratified database)"
      | None -> "DNDB (disjunctive normal database, unstratified)"
  in
  Fmt.pr "class:              %s@." kind;
  (* The fast-path dispatcher's view: the syntactic fragments that decide
     which (semantics, problem) cells route to polynomial algorithms. *)
  let fr = Ddb_frag.Frag.classify db in
  Fmt.pr "fragments:          %s@."
    (match Ddb_frag.Frag.names fr with
    | [] -> "(none)"
    | ns -> String.concat ", " ns);
  (match Stratify.compute db with
  | Some s ->
    Fmt.pr "stratification:@.";
    List.iteri
      (fun i stratum ->
        Fmt.pr "  S%d = %a@." (i + 1) (Interp.pp ~vocab) stratum)
      (Stratify.strata s)
  | None -> Fmt.pr "stratification:     none (recursion through negation)@.");
  Ok ()

(* --- models --- *)

(* Listing and counting enumerate the universe ([reference_models]):
   past 22 atoms only with --brute. *)
let enumerated ~what db brute k =
  if (not brute) && Db.num_vars db > 22 then
    Error
      (`Msg
        (Printf.sprintf
           "model %s enumerates the universe; use --brute to force it on \
            more than 22 atoms"
           what))
  else k ()

let models db (sem : Semantics.t) limit brute =
  Result.bind (check_applicable sem db) @@ fun () ->
  enumerated ~what:"listing" db brute @@ fun () ->
  let vocab = Db.vocab db in
    let all = sem.Semantics.reference_models db in
    let total = List.length all in
    let shown =
      match limit with
      | Some k when k < total -> List.filteri (fun i _ -> i < k) all
      | _ -> all
    in
    let truncated = List.length shown < total in
    (* The count reported is the *true* total; a --limit cut used to be
       silent (the listing looked complete). *)
    Fmt.pr "%d model(s) under %s:@." total sem.Semantics.name;
    List.iter (fun m -> Fmt.pr "  %a@." (Interp.pp ~vocab) m) shown;
    if truncated then
      Fmt.pr "  ... (truncated by --limit: %d of %d shown)@."
        (List.length shown) total;
    Ok ()

let brute_arg =
  Arg.(value & flag & info [ "brute" ] ~doc:"Allow large enumerations.")

let no_fastpath_flag =
  Arg.(
    value & flag
    & info [ "no-fastpath" ]
        ~doc:
          "Disable the tractable-fragment fast paths (ablation: every \
           query runs the generic oracle procedure, as before the \
           dispatcher existed).")

(* --- query --- *)

(* --- ⟨P;Q;Z⟩ partitions from the command line --- *)

let atom_list_conv =
  let parse s = Ok (String.split_on_char ',' s |> List.filter (( <> ) "")) in
  let print ppf names = Fmt.string ppf (String.concat "," names) in
  Arg.conv (parse, print)

let minimize_arg =
  Arg.(
    value
    & opt (some atom_list_conv) None
    & info [ "minimize" ] ~docv:"ATOMS"
        ~doc:
          "Comma-separated atoms to minimize (the P part of ⟨P;Q;Z⟩).  With \
           $(b,--minimize), atoms named in no option are held fixed (Q): \
           the circumscription reading Circ(DB; P; Z).  Without it, they \
           are minimized.")

let fixed_arg =
  Arg.(
    value
    & opt atom_list_conv []
    & info [ "fixed" ] ~docv:"ATOMS" ~doc:"Atoms held fixed (Q).")

let vary_arg =
  Arg.(
    value
    & opt atom_list_conv []
    & info [ "vary" ] ~docv:"ATOMS" ~doc:"Atoms left floating (Z).")

(* Build a partition: named atoms go to their bucket.  Unmentioned atoms
   (query atoms the database does not contain included) are fixed when
   --minimize names P, the circumscription reading Circ(DB; P; Z) in which
   every atom outside P ∪ Z is in Q; otherwise they are minimized, the
   GCWA convention. *)
let build_partition db ~minimize ~fixed ~vary =
  let vocab = Db.vocab db in
  let n = Db.num_vars db in
  let resolve bucket names =
    List.fold_left
      (fun acc name ->
        Result.bind acc (fun ids ->
            match Vocab.find_opt vocab name with
            | Some id when id < n -> Ok (id :: ids)
            | Some _ | None ->
              Error
                (`Msg (Printf.sprintf "%s: unknown atom %S" bucket name))))
      (Ok []) names
  in
  Result.bind (resolve "--fixed" fixed) @@ fun q ->
  Result.bind (resolve "--vary" vary) @@ fun z ->
  Result.bind
    (match minimize with
    | None -> Ok None
    | Some names -> Result.map Option.some (resolve "--minimize" names))
  @@ fun p ->
  let named = Option.value p ~default:[] @ q @ z in
  let rest = List.filter (fun x -> not (List.mem x named)) (Db.atoms db) in
  let p, q = match p with Some p -> (p, rest @ q) | None -> (rest, q) in
  match Partition.of_lists n ~p ~q ~z with
  | part -> Ok part
  | exception Invalid_argument msg -> Error (`Msg msg)

let pp_model vocab ppf = function
  | Semantics.Two_valued m -> Interp.pp ~vocab ppf m
  | Semantics.Three_valued i -> Three_valued.pp ~vocab ppf i

(* Cautious answers and witnesses share one search per semantics: a brave
   answer is whether a witness of F exists, and the counterexample to a
   failed cautious query is the witness of ¬F.  Both run on one engine, so
   the fragment fast paths apply (--no-fastpath is the generic-oracle
   ablation) and a closed-world counterexample is a memo hit. *)
let query db (sem : Semantics.t) query_str brave witness ~no_fastpath
    ~minimize ~fixed ~vary =
  Result.bind (check_applicable sem db) @@ fun () ->
  let vocab = Db.vocab db in
  let eng = Ddb_engine.Engine.create ~fastpath:(not no_fastpath) () in
  let name = sem.Semantics.name in
  (* An explicit ⟨P;Q;Z⟩ is built over the database padded for the query,
     and the record is asked at it. *)
  let record f =
    Result.bind
      (if minimize = None && fixed = [] && vary = [] then Ok None
       else
         Result.map Option.some
           (build_partition (Semantics.for_query db f) ~minimize ~fixed ~vary))
    @@ fun part ->
    match Registry.find ?part name with
    | Some s -> Ok (s, part)
    | None ->
      Error
        (`Msg
          (Printf.sprintf
             "--minimize/--fixed/--vary need a partition-parametric \
              semantics (ccwa, ecwa, circ, icwa), not %s"
             name))
  in
  match Parse.formula vocab query_str with
  | exception Parse.Error msg ->
    Error (`Msg (Printf.sprintf "query parse error: %s" msg))
  | f ->
    Result.bind (record f) @@ fun (s, part) ->
    let witness_of = s.Semantics.witness eng db in
    let answer, shown =
      if brave then
        let w = witness_of f in
        (Option.is_some w, Option.map (fun m -> ("witness", m)) w)
      else
        let a = s.Semantics.infer_formula eng db f in
        ( a,
          if a || not witness then None
          else
            Option.map
              (fun m -> ("counterexample", m))
              (witness_of (Formula.not_ f)) )
    in
    Fmt.pr "%s(DB) %s %a%s@." name
      (match (brave, answer) with
      | false, true -> "|="
      | false, false -> "|/="
      | true, true -> "|~"
      | true, false -> "|/~")
      (Formula.pp ~vocab) f
      (match part with
      | Some part -> Fmt.str "   (%a)" (Partition.pp ~vocab) part
      | None -> if brave then "   (brave)" else "");
    (if witness then
       match shown with
       | Some (label, m) -> Fmt.pr "%s: %a@." label (pp_model vocab) m
       | None -> ());
    Ok ()

let query_str_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "q"; "query" ] ~docv:"FORMULA"
        ~doc:
          "Query formula, e.g. \"~a & (b | c)\"; ground Datalog atoms like \
           \"win(b)\" are single atoms.")

let brave_flag =
  Arg.(
    value & flag
    & info [ "brave" ]
        ~doc:"Credulous inference: true in SOME intended model.")

let witness_flag =
  Arg.(
    value & flag
    & info [ "witness" ]
        ~doc:
          "Print a witnessing model (brave) or a counterexample model \
           (failed cautious query).")

(* --- exists --- *)

let exists db (sem : Semantics.t) ~no_fastpath =
  Result.bind (check_applicable sem db) @@ fun () ->
  let eng = Ddb_engine.Engine.create ~fastpath:(not no_fastpath) () in
  Fmt.pr "%s(DB) %s@." sem.Semantics.name
    (if sem.Semantics.has_model eng db then "has a model"
     else "has no model");
  Ok ()

(* --- count --- *)

let count db (sem : Semantics.t) brute =
  Result.bind (check_applicable sem db) @@ fun () ->
  enumerated ~what:"counting" db brute @@ fun () ->
  Fmt.pr "%d model(s) under %s@."
    (List.length (sem.Semantics.reference_models db))
    sem.Semantics.name;
  Ok ()

(* --- ground --- *)

let ground_cmd_impl path =
  if not (Filename.check_suffix path ".dl") then
    Error (`Msg "ground expects a .dl Datalog file")
  else
    Result.map
      (fun g ->
        Fmt.pr "%% grounded from %s (%d constants)@." path
          (List.length g.Ddb_ground.Grounder.constants);
        Fmt.pr "%a@." Db.pp g.Ddb_ground.Grounder.db)
      (read_input Ddb_ground.Grounder.of_file path)

let path_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Non-ground Datalog file (.dl).")

(* --- stats / sweep --- *)

module Batch = Ddb_parallel.Batch

(* A worker count the pool can run: from 1 to [Pool.max_jobs]. *)
let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 && n <= Ddb_parallel.Pool.max_jobs -> Ok n
    | _ ->
      Error
        (`Msg
          (Printf.sprintf "expected a worker count from 1 to %d, got %S"
             Ddb_parallel.Pool.max_jobs s))
  in
  Arg.conv (parse, Fmt.int)

let jobs_arg =
  Arg.(
    value
    & opt (some jobs_conv) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the sweep (one oracle-engine shard each), at \
           least 1.  Default: the runtime's recommended domain count.")

(* Resolve -s into the semantics names to run: the named one, or every
   applicable one. *)
let select_sems db sem_name =
  match sem_name with
  | Some name ->
    if not (List.mem name Registry.names) then
      Error
        (`Msg
          (Printf.sprintf "unknown semantics %S (try: %s)" name
             (String.concat ", " Registry.names)))
    else if not (List.mem name (Registry.applicable_names db)) then
      Error
        (`Msg
          (Printf.sprintf "the %s semantics is not applicable to this database"
             name))
    else Ok [ name ]
  | None -> Ok (Registry.applicable_names db)

let count_unknowns answers =
  List.length
    (List.filter (function Budget.Unknown _ -> true | _ -> false) answers)

let literal_cells rows =
  List.concat_map (fun (_, cells) -> List.map snd cells) rows

(* The stats workload: two passes of a full ± literal sweep plus an
   existence check, every cell under its own token.  Returns how many
   cells degraded to unknown (0 when no budget is set). *)
let stats_workload b ~sems bopts db =
  let limits = bopts.limits and retry = bopts.on_exhaust = `Retry in
  let unknowns = ref 0 in
  for _pass = 1 to 2 do
    let lits = Batch.literal_sweep b ~sems ~limits ~retry db in
    let exists = Batch.exists_sweep b ~sems ~limits ~retry db in
    unknowns :=
      !unknowns + count_unknowns (literal_cells lits)
      + count_unknowns (List.map snd exists)
  done;
  !unknowns

(* Close out a sweep: --on-exhaust fail turns any degraded cell into a hard
   error; otherwise the cells count toward exit code 7.  The degraded count
   is recorded in *both* branches — the hard error must not swallow the
   how-many-cells-degraded information (it is reported on stderr at exit
   even when a nonzero code takes precedence over 7). *)
let finish_sweep bopts unknowns k =
  degraded_cells := !degraded_cells + unknowns;
  if bopts.on_exhaust = `Fail && unknowns > 0 then
    Error (`Msg (Printf.sprintf "budget exhausted on %d cell(s)" unknowns))
  else k ()

(* Run the closed-world query workload ([stats_workload]) across a pool of
   worker domains, one memoizing oracle engine per worker, and print the
   merged per-semantics stats record as JSON — same schema as a single
   engine's (the "unknowns" counters are zero on unbudgeted runs).
   --no-cache replays the workload on cache-disabled shards (no memo
   tables, a fresh solver per oracle question) for ablation. *)
let stats bopts db ~sems with_batch =
  with_batch @@ fun b ->
  finish_sweep bopts (stats_workload b ~sems bopts db) @@ fun () ->
  Fmt.pr "%s@." (Batch.stats_json b);
  Ok ()

(* Print every ± literal's answer under every selected semantics.  Output
   order is fixed (semantics in registry order, ¬x before x, atoms
   ascending) and independent of --jobs.  Every cell runs on its own token;
   degraded cells print |? instead of |=/|/=. *)
let sweep bopts db ~sems with_batch =
  with_batch @@ fun b ->
  let vocab = Db.vocab db in
  let rows =
    Batch.literal_sweep b ~sems ~limits:bopts.limits
      ~retry:(bopts.on_exhaust = `Retry) db
  in
  List.iter
    (fun (sem, answers) ->
      List.iter
        (fun (l, ans) ->
          let rel =
            match ans with
            | Budget.True -> "|="
            | Budget.False -> "|/="
            | Budget.Unknown _ -> "|?"
          in
          Fmt.pr "%-8s %s %a@." sem rel (Lit.pp ~vocab) l)
        answers)
    rows;
  finish_sweep bopts (count_unknowns (literal_cells rows)) @@ fun () -> Ok ()

let stats_sem_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "s"; "semantics" ] ~docv:"SEM"
        ~doc:
          (Printf.sprintf
             "Restrict the sweep to one semantics; one of: %s.  Default: \
              every applicable semantics."
             (String.concat ", " Registry.names)))

let no_cache_flag =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Disable the engine's memo tables (ablation: the same oracle \
           procedures on a fresh solver per question, still \
           instrumented).")

(* --- profile --- *)

(* The stats workload, reported as a per-oracle-kind latency table folded
   from the trace's op spans (merged across workers).  It runs under the
   --trace trace when one is active — latencies are then in that trace's
   clock, deterministic ticks by default — and otherwise under a wall-clock
   trace of its own (µs).  The unit is printed in the header. *)
let profile bopts db ~sems with_batch =
  let own = not (Trace.enabled ()) in
  if own then Trace.start ~clock:Trace.Wall ();
  let unknowns =
    Fun.protect ~finally:(fun () -> if own then Trace.stop ()) @@ fun () ->
    with_batch @@ fun b -> stats_workload b ~sems bopts db
  in
  finish_sweep bopts unknowns @@ fun () ->
  let dropped = Trace.dropped () in
  if dropped > 0 then
    Fmt.epr "profile: %d trace event(s) dropped; the table is partial@."
      dropped;
  let unit =
    match Trace.current_clock () with Trace.Logical -> "ticks" | Wall -> "us"
  in
  Fmt.pr "%-28s %8s %8s %8s %9s %9s %9s %9s %12s@." "oracle op" "count"
    "hits" "misses" "p50" "p90" "p99" "max" ("total/" ^ unit);
  List.iter
    (fun (r : Metrics.row) ->
      let s = r.latency in
      Fmt.pr "%-28s %8d %8d %8d %9.1f %9.1f %9.1f %9.1f %12.1f@." r.op
        s.count r.hits r.misses s.p50 s.p90 s.p99 s.max s.sum)
    (Metrics.op_rows (Trace.spans ()));
  Ok ()

(* --- semantics list --- *)

let list_semantics () =
  List.iter
    (fun (s : Semantics.t) ->
      Fmt.pr "%-8s %s@." s.Semantics.name s.Semantics.long_name)
    Registry.all;
  Ok ()

(* --- command wiring --- *)

let version = "1.1.0"

let handle = function
  | Ok () -> `Ok ()
  | Error (`Msg m) -> `Error (false, m)

(* Every subcommand's exit-status table gains the degraded code. *)
let exits =
  Cmd.Exit.info exit_degraded
    ~doc:
      "the command completed but at least one answer degraded to unknown \
       because a $(b,--budget-*) cap tripped (and $(b,--on-exhaust) was not \
       $(b,fail))."
  :: Cmd.Exit.defaults

(* The budget contract, shared by every subcommand's man page. *)
let budget_man =
  [
    `S "BUDGETS";
    `P
      "$(b,--budget-conflicts), $(b,--budget-ticks) and $(b,--budget-ms) \
       bound the oracle work of the run.  Single-query commands run under \
       one budget; $(b,stats)/$(b,sweep)/$(b,profile) mint a fresh budget \
       per (semantics, query) cell, so one pathological cell degrades \
       alone.  A tripped budget degrades the answer to $(i,unknown) — \
       sweeps print $(b,|?) for the cell — and the process exits with \
       status 7 so scripts can tell a complete run from a clipped one.  \
       Conflict and tick caps are deterministic (the same cells degrade \
       every run, at every $(b,--jobs)); wall deadlines are not.";
  ]

(* The single-query commands: [body] is the command's own arguments
   applied to its function, a thunk run under one whole-command budget
   token, traced when --trace is given. *)
let single_cmd name ~doc body =
  Cmd.v
    (Cmd.info name ~exits ~man:budget_man ~doc)
    Term.(
      ret
        (const (fun trace clock bopts run ->
             handle (traced trace clock (fun () -> budgeted_run bopts run)))
        $ trace_arg $ trace_clock_arg $ budget_term $ body))

let classify_cmd =
  single_cmd "classify" ~doc:"Classify a database (DDDB/DSDB/DNDB, strata)"
    Term.(const (fun db () -> classify db) $ db_arg)

let models_cmd =
  single_cmd "models" ~doc:"List the models under a semantics"
    Term.(
      const (fun db sem limit brute () -> models db sem limit brute)
      $ db_arg $ semantics_arg $ limit_arg $ brute_arg)

let query_cmd =
  single_cmd "query" ~doc:"Decide SEM(DB) |= FORMULA (cautious or brave)"
    Term.(
      const
        (fun db sem q brave witness no_fastpath minimize fixed vary () ->
          query db sem q brave witness ~no_fastpath ~minimize ~fixed ~vary)
      $ db_arg $ semantics_arg $ query_str_arg $ brave_flag $ witness_flag
      $ no_fastpath_flag $ minimize_arg $ fixed_arg $ vary_arg)

let exists_cmd =
  single_cmd "exists" ~doc:"Decide whether SEM(DB) has a model"
    Term.(
      const (fun db sem no_fastpath () -> exists db sem ~no_fastpath)
      $ db_arg $ semantics_arg $ no_fastpath_flag)

let ground_cmd =
  single_cmd "ground"
    ~doc:"Ground a Datalog file and print the propositional program"
    Term.(const (fun path () -> ground_cmd_impl path) $ path_arg)

let count_cmd =
  single_cmd "count" ~doc:"Count the models under a semantics"
    Term.(
      const (fun db sem brute () -> count db sem brute)
      $ db_arg $ semantics_arg $ brute_arg)

(* --jobs determinism contract, shared by the stats/sweep/profile pages. *)
let jobs_man =
  [
    `S Manpage.s_description;
    `P
      "$(b,--jobs) $(i,N) fans the query sweep out over $(i,N) OCaml 5 \
       worker domains, one memoizing oracle-engine shard per worker.  The \
       fan-out is order-stable: queries are tagged with their position and \
       reassembled by position after the join, so the printed answers — \
       and the merged stats JSON schema — are $(b,identical for every job \
       count), including $(b,--jobs 1) and the sequential path.  Query \
       $(i,k) always runs on worker $(i,k mod N), so at a given $(i,N) the \
       per-shard counters — and the stats record without its wall times — \
       are the same on every run; per-shard cache hits vary with $(i,N), \
       answers never do.";
    `P
      "With $(b,--trace), the per-worker event streams in the trace are \
       reproducible too: with the default logical trace clock the trace \
       file is byte-identical across runs.";
  ]
  @ budget_man

(* The stats/sweep/profile commands: [run bopts db ~sems with_batch] on
   the semantics -s selects, where [with_batch] makes the batch of --jobs
   shards with the --no-cache/--no-fastpath flags. *)
let batch_cmd name ~doc run =
  Cmd.v
    (Cmd.info name ~exits ~man:jobs_man ~doc)
    Term.(
      ret
        (const (fun trace clock bopts db sem no_cache no_fastpath jobs ->
             handle
               (traced trace clock (fun () ->
                    Result.bind (select_sems db sem) @@ fun sems ->
                    run bopts db ~sems (fun f ->
                        Batch.with_batch ?jobs ~cache:(not no_cache)
                          ~fastpath:(not no_fastpath) f))))
        $ trace_arg $ trace_clock_arg $ budget_term $ db_arg $ stats_sem_arg
        $ no_cache_flag $ no_fastpath_flag $ jobs_arg))

let stats_cmd =
  batch_cmd "stats" stats
    ~doc:
      "Sweep all ± literal queries through sharded memoizing oracle engines \
       (--jobs worker domains) and print the merged instrumentation record \
       as JSON"

let sweep_cmd =
  batch_cmd "sweep" sweep
    ~doc:
      "Answer every ± literal query under every applicable semantics, \
       fanned out over --jobs worker domains"

let profile_cmd =
  batch_cmd "profile" profile
    ~doc:
      "Run the stats workload under a trace and print a per-oracle-kind \
       p50/p90/p99 latency table folded from its spans (merged across \
       --jobs workers).  With --trace the latencies are in that trace's \
       clock (deterministic logical ticks by default); without it, wall \
       microseconds"

let semantics_cmd =
  Cmd.v (Cmd.info "semantics" ~doc:"List the available semantics")
    Term.(ret (const (fun () -> handle (list_semantics ())) $ const ()))

let version_cmd =
  Cmd.v (Cmd.info "version" ~doc:"Print the ddbtool version")
    Term.(
      ret
        (const (fun () ->
             Fmt.pr "ddbtool %s@." version;
             `Ok ())
        $ const ()))

let main_cmd =
  let doc = "disjunctive database semantics (Eiter & Gottlob, PODS-93)" in
  Cmd.group
    (Cmd.info "ddbtool" ~version ~doc ~exits ~man:budget_man)
    [
      classify_cmd; models_cmd; query_cmd; exists_cmd; count_cmd; ground_cmd;
      stats_cmd; sweep_cmd; profile_cmd; semantics_cmd; version_cmd;
    ]

(* A clean run that nevertheless degraded some answer exits 7, so callers
   can distinguish "all definite" from "completed but clipped".  A hard
   error keeps its own exit code (it outranks 7), but the degraded-cell
   count is still reported on stderr so the information is never lost. *)
let () =
  let code = Cmd.eval main_cmd in
  if !degraded_cells > 0 then
    Fmt.epr "ddbtool: %d answer(s) degraded to unknown@." !degraded_cells;
  exit (if code = 0 && !degraded_cells > 0 then exit_degraded else code)
