(* Name → packed semantics, for the CLI, examples and benches.

   The partition-parametric semantics (CCWA, ECWA, ICWA) appear with their
   canonical total partition ⟨V;∅;∅⟩; use their modules directly for custom
   partitions.

   Every record routes through an oracle engine: [all_in eng] packs the
   semantics on the caller's engine (shared incremental solvers, per-theory
   caches, per-semantics instrumentation).  [find] packs them on a fresh
   engine with neither cache nor fast path — the paper's algorithms as
   stated, one fresh solver per oracle question.  That baseline is a
   configuration of the same code, not a second copy of it, and each call
   gets its own engine, so no mutable engine is shared between callers. *)

module Engine = Ddb_engine.Engine

(* Engine-routed records additionally go through the fragment fast-path
   dispatcher: tractable (semantics, problem, fragment) cells are answered
   by the polynomial algorithms of [Ddb_frag], everything else falls back
   to the generic oracle procedures.  [Engine.create ~fastpath:false]
   turns the dispatcher off, which restores the pre-dispatch behaviour
   exactly. *)
let all_in eng : Semantics.t list =
  List.map (Fastpath.wrap eng)
    [
      Cwa.semantics_in eng;
      Gcwa.semantics_in eng;
      Ddr.semantics_in eng;
      Pws.semantics_in eng;
      Egcwa.semantics_in eng;
      Ccwa.semantics_in eng;
      Ecwa.semantics_in eng;
      Circ.semantics_in eng;
      Icwa.semantics_in eng;
      Perf.semantics_in eng;
      Dsm.semantics_in eng;
      Pdsm.semantics_in eng;
    ]

let baseline () = all_in (Engine.create ~cache:false ~fastpath:false ())

let find_among sems name =
  List.find_opt (fun (s : Semantics.t) -> String.equal s.Semantics.name name) sems

let find name = find_among (baseline ()) name
let find_in eng name = find_among (all_in eng) name

let names = List.map (fun (s : Semantics.t) -> s.Semantics.name) (baseline ())

let applicable_names db =
  List.filter_map
    (fun (s : Semantics.t) ->
      if s.Semantics.applicable db then Some s.Semantics.name else None)
    (baseline ())

(* One-shot boolean evaluation by name on a caller-supplied engine: the
   primitive query.  A budget wraps it from outside
   ([Engine.budgeted eng limits ~sem (fun () -> infer_literal_in ...)]);
   the batch layer's sweeps run the same records (from [all_in], cached
   per worker shard) that way, and these are the sequential baseline its
   determinism tests compare against. *)

let in_exn eng name =
  match find_in eng name with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Registry: unknown semantics %S" name)

let infer_literal_in eng ~sem db l = (in_exn eng sem).Semantics.infer_literal db l
let infer_formula_in eng ~sem db f = (in_exn eng sem).Semantics.infer_formula db f
let has_model_in eng ~sem db = (in_exn eng sem).Semantics.has_model db
