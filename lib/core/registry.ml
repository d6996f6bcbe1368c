(* Name → packed semantics, for the CLI, examples and benches.

   The partition-parametric semantics (CCWA, ECWA, CIRC, ICWA) appear with
   their canonical total partition ⟨V;∅;∅⟩, and [find_in ~part] packs them
   at any other ⟨P;Q;Z⟩.  At the total partition CCWA is GCWA and ECWA is
   EGCWA, so the "gcwa" and "egcwa" records are the CCWA and ECWA records
   under their own names; those two are defined at ⟨V;∅;∅⟩ only.

   Every record routes through an oracle engine and is packed by [pack]:
   the module's [semantics_in eng] wrapped by [Fastpath.wrap eng].
   [find_in eng]/[all_in eng] pack each record at most once per engine
   and per domain, and hand out that same physical record afterwards, so a
   one-shot query ([infer_literal_in] and friends) pays for its answer,
   not for its wrapping.  A packed record holds no state of its own (all
   of it lives in the engine), so sharing it cannot change an answer.
   [find] packs on a fresh engine with neither cache nor fast path — the
   paper's algorithms as stated, one fresh solver per oracle question.
   That baseline is a configuration of the same code, not a second copy
   of it, and each call gets its own engine, so no mutable engine is
   shared between callers. *)

module Engine = Ddb_engine.Engine

(* A record is made on an engine, and a parametric one at a ⟨P;Q;Z⟩ too. *)
type make =
  | Total of (Engine.t -> Semantics.t)
  | Parametric of (?part:Ddb_logic.Partition.t -> Engine.t -> Semantics.t)

(* Registry order, name → engine-routed record.  Engine-routed records
   additionally go through the fragment fast-path dispatcher: tractable
   (semantics, problem, fragment) cells are answered by the polynomial
   algorithms of [Ddb_frag], everything else falls back to the generic
   oracle procedures.  [Engine.create ~fastpath:false] turns the
   dispatcher off, which restores the pre-dispatch behaviour exactly. *)
let entries : (string * make) array =
  (* GCWA/EGCWA: the CCWA/ECWA records under their own names, at ⟨V;∅;∅⟩ *)
  [|
    ("cwa", Total Cwa.semantics_in);
    ( "gcwa",
      Total
        (Ccwa.semantics_in ~name:"gcwa"
           ~long_name:"Generalized Closed World Assumption (Minker)") );
    ("ddr", Total Ddr.semantics_in);
    ("pws", Total Pws.semantics_in);
    ( "egcwa",
      Total
        (Ecwa.semantics_in ~name:"egcwa"
           ~long_name:"Extended Generalized CWA (Yahya & Henschen)") );
    ( "ccwa",
      Parametric
        (Ccwa.semantics_in ~name:"ccwa"
           ~long_name:
             "Careful Closed World Assumption (Gelfond & Przymusinska)") );
    ( "ecwa",
      Parametric
        (Ecwa.semantics_in ~name:"ecwa"
           ~long_name:"Extended CWA (Gelfond, Przymusinska & Przymusinski)") );
    ("circ", Parametric Circ.semantics_in);
    ("icwa", Parametric Icwa.semantics_in);
    ("perf", Total Perf.semantics_in);
    ("dsm", Total Dsm.semantics_in);
    ("pdsm", Total Pdsm.semantics_in);
  |]

let names = Array.to_list (Array.map fst entries)

let index name =
  let rec go i =
    if i = Array.length entries then None
    else if String.equal (fst entries.(i)) name then Some i
    else go (i + 1)
  in
  go 0

let pack eng i =
  Fastpath.wrap eng
    (match snd entries.(i) with Total mk -> mk eng | Parametric mk -> mk eng)

(* The records packed for the last engine asked, one slot per registry
   position, filled on first use: a fresh engine per query packs only the
   record it asks for.  One memo per domain, so worker domains never share
   it; a query on another engine replaces it. *)
type per_engine = { eng : Engine.t; slots : Semantics.t option array }

let memo : per_engine option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let packed eng i =
  let m =
    match Domain.DLS.get memo with
    | Some m when m.eng == eng -> m
    | _ ->
      let m = { eng; slots = Array.make (Array.length entries) None } in
      Domain.DLS.set memo (Some m);
      m
  in
  match m.slots.(i) with
  | Some s -> s
  | None ->
    let s = pack eng i in
    m.slots.(i) <- Some s;
    s

let all_in eng = List.init (Array.length entries) (packed eng)

(* At a given partition only the four parametric records exist; each
   question packs its own, outside the memo. *)
let find_in ?part eng name =
  match (part, index name) with
  | None, i -> Option.map (packed eng) i
  | Some part, Some i -> (
    match snd entries.(i) with
    | Parametric mk -> Some (Fastpath.wrap ~part eng (mk ~part eng))
    | Total _ -> None)
  | Some _, None -> None

(* Fresh engines bypass the memo, so they never evict a caller's engine. *)
let find name =
  Option.map (pack (Engine.create ~cache:false ~fastpath:false ())) (index name)

(* Each record's [applicable] test, read once (the wrapper keeps it as it
   is): no semantics' test touches its engine. *)
let applicables =
  let eng = Engine.create ~cache:false ~fastpath:false () in
  Array.init (Array.length entries) (fun i -> (pack eng i).Semantics.applicable)

let applicable_names db =
  List.filteri (fun i _ -> applicables.(i) db) names

(* One-shot boolean evaluation by name on a caller-supplied engine: the
   primitive query.  A budget wraps it from outside
   ([Engine.budgeted eng limits ~sem (fun () -> infer_literal_in ...)]);
   the batch layer's sweeps run the same records (from [all_in], cached
   per worker shard) that way, and these are the sequential baseline its
   determinism tests compare against. *)

let in_exn eng name =
  match index name with
  | Some i -> packed eng i
  | None -> invalid_arg (Printf.sprintf "Registry: unknown semantics %S" name)

let infer_literal_in eng ~sem db l = (in_exn eng sem).Semantics.infer_literal db l
let infer_formula_in eng ~sem db f = (in_exn eng sem).Semantics.infer_formula db f
let has_model_in eng ~sem db = (in_exn eng sem).Semantics.has_model db
