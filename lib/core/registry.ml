(* Name → packed semantics, for the CLI, examples and benches.

   The partition-parametric semantics (CCWA, ECWA, CIRC, ICWA) appear with
   their canonical total partition ⟨V;∅;∅⟩; use their modules directly for
   custom partitions.  At that partition CCWA is GCWA and ECWA is EGCWA,
   so the "gcwa" and "egcwa" records are the CCWA and ECWA records under
   their own names.

   Every record routes through an oracle engine: [all_in eng] packs the
   semantics on the caller's engine (shared incremental solvers, per-theory
   caches, per-semantics instrumentation).  [find] packs them on a fresh
   engine with neither cache nor fast path — the paper's algorithms as
   stated, one fresh solver per oracle question.  That baseline is a
   configuration of the same code, not a second copy of it, and each call
   gets its own engine, so no mutable engine is shared between callers. *)

module Engine = Ddb_engine.Engine

(* Registry order, name → engine-routed record.  Engine-routed records
   additionally go through the fragment fast-path dispatcher: tractable
   (semantics, problem, fragment) cells are answered by the polynomial
   algorithms of [Ddb_frag], everything else falls back to the generic
   oracle procedures.  [Engine.create ~fastpath:false] turns the
   dispatcher off, which restores the pre-dispatch behaviour exactly. *)
let entries : (string * (Engine.t -> Semantics.t)) list =
  (* GCWA/EGCWA are the CCWA/ECWA records under their own names *)
  let named semantics_in name long_name =
    (name, semantics_in ~name ~long_name)
  in
  [
    ("cwa", Cwa.semantics_in);
    named Ccwa.semantics_in "gcwa"
      "Generalized Closed World Assumption (Minker)";
    ("ddr", Ddr.semantics_in);
    ("pws", Pws.semantics_in);
    named Ecwa.semantics_in "egcwa"
      "Extended Generalized CWA (Yahya & Henschen)";
    named Ccwa.semantics_in "ccwa"
      "Careful Closed World Assumption (Gelfond & Przymusinska)";
    named Ecwa.semantics_in "ecwa"
      "Extended CWA (Gelfond, Przymusinska & Przymusinski)";
    ("circ", Circ.semantics_in);
    ("icwa", Icwa.semantics_in);
    ("perf", Perf.semantics_in);
    ("dsm", Dsm.semantics_in);
    ("pdsm", Pdsm.semantics_in);
  ]

let pack eng mk = Fastpath.wrap eng (mk eng)
let all_in eng : Semantics.t list = List.map (fun (_, mk) -> pack eng mk) entries
let baseline () = all_in (Engine.create ~cache:false ~fastpath:false ())

(* One record, packed on demand: a lookup builds nothing else. *)
let find_in eng name = Option.map (pack eng) (List.assoc_opt name entries)
let find name = find_in (Engine.create ~cache:false ~fastpath:false ()) name

let names = List.map fst entries

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
