open Ddb_logic
open Ddb_db
module Engine = Ddb_engine.Engine
module F = Ddb_frag.Frag

(* The registry's one wrapper around every semantics record.  It does two
   things:

   - Attribution.  Every field ([has_model], [infer_formula],
     [infer_literal], [witness]) runs inside [Engine.scoped eng name], with
     the fast path on or off and for every record, pdsm included.  No other
     code in lib/core opens a scope, so a record's work always lands in its
     own bucket and every [engine.*] and [fastpath.*] span nests under its
     [scope.<name>] span.

   - Fast-path dispatch.  Route a semantics' decision problems to dedicated
     polynomial algorithms when the engine's fragment classifier certifies
     a P cell of Table 1/2, falling back to the generic oracle procedure
     (and recording a miss) otherwise.

   Correctness notes per routed family — the qcheck differential law in
   test/test_frag.ml holds every one of these equal to the generic path:

   - Definite-Horn (positive, single-headed rules; positive integrity
     clauses allowed).  The rules' least model L is the unique minimal
     model; the database is consistent iff L violates no integrity clause
     (every model contains L, so a violated constraint kills them all).
     Each routed semantics' model set is then {L} when consistent and ∅
     otherwise: CWA/GCWA/CCWA negate exactly V∖L (the non-entailed =
     non-supported atoms), EGCWA/ECWA/CIRC mean the minimal models, DDR's
     occurrence set is L itself, PWS has the single split-program lfp L,
     and the GL reduct of a positive program is the program (DSM = MM).
     So inference is evaluation in L (vacuously true when inconsistent)
     and existence is the consistency check.

   - Positive, no integrity clauses.  DDR/PWS ⊨ ¬x iff x is outside the
     relevancy-graph closure (Chan).  (GCWA/CCWA/EGCWA/ECWA existence is
     O(1) there too, but the records answer it themselves:
     [Db.is_positive_ddb db] holds before any oracle call.)

   - Stratified normal, no integrity clauses.  The iterated least model
     is the unique perfect model (Apt–Blair–Walker, Przymusinski) and the
     unique stable model, and ICWA's iterated ECWA intersection coincides
     with the perfect models on stratified databases (GPP), so PERF, ICWA
     and DSM inference evaluate in it and existence is O(1) true. *)

(* Evaluation in the single intended model.  Query atoms beyond the
   database universe are false in every intended model here (each routed
   semantics closes unconstrained fresh atoms), so padding the model with
   false bits matches the generic path's universe-padded query. *)
let pad m n' =
  let n = Interp.universe_size m in
  if n' <= n then m else Interp.of_pred n' (fun x -> x < n && Interp.mem m x)

let eval_model m f = Formula.eval (pad m (Formula.max_atom f + 1)) f

let lit_true m = function
  | Lit.Pos x -> x < Interp.universe_size m && Interp.mem m x
  | Lit.Neg x -> not (x < Interp.universe_size m && Interp.mem m x)

(* Which semantics each fragment family covers (registry names; the
   partition-parametric ones with their canonical total partition). *)
let definite_family =
  [ "cwa"; "gcwa"; "ddr"; "pws"; "egcwa"; "ccwa"; "ecwa"; "circ"; "dsm" ]

let perfect_family = [ "perf"; "icwa"; "dsm" ]
let occ_family = [ "ddr"; "pws" ]

let strat_gate (fr : F.t) = fr.F.stratified && fr.F.normal && fr.F.no_integrity
let pos_gate (fr : F.t) = fr.F.positive && fr.F.no_integrity

(* Inference against the definite database's model set: evaluation in the
   least model, vacuously true when the integrity clauses empty it. *)
let definite_answer info k =
  if Lazy.force info.F.consistent then k (Lazy.force info.F.closure) else true

let wrap ?part (s : Semantics.spec) : Semantics.spec =
  let sem = s.name in
  let in_definite = List.mem sem definite_family in
  let in_perfect = List.mem sem perfect_family in
  let in_occ = List.mem sem occ_family in
  (* pdsm has no routed cell: it is scoped, never classified; every routed
     cell assumes ⟨V;∅;∅⟩, so neither has a record asked at [part] *)
  let routed =
    Option.is_none part && (in_definite || in_perfect || in_occ)
  in
  (* The one attribution site: every field runs in the record's scope, so
     its work, wall time and [scope.<name>] span are the semantics' own. *)
  let scoped eng f = Engine.scoped eng sem f in
  (* The fast-path op names, built once per record. *)
  let op_exists = sem ^ "/exists"
  and op_formula = sem ^ "/formula"
  and op_literal = sem ^ "/literal" in
  (* [fast info] decides the route from the cached classification: a hit
     runs as one budget-probed fast-path op, a fall-through records the
     miss and runs the generic procedure. *)
  let route eng ~op db fast fallback =
    scoped eng (fun () ->
        if not (routed && Engine.fastpath_enabled eng) then fallback ()
        else
          match fast (Engine.classify eng db) with
          | Some thunk -> Engine.fastpath_hit eng ~op db thunk
          | None ->
            Engine.fastpath_miss eng;
            fallback ())
  in
  let fast_formula f info =
    let fr = info.F.frag in
    if in_definite && fr.F.definite then
      Some (fun () -> definite_answer info (fun m -> eval_model m f))
    else if in_perfect && strat_gate fr then
      Some (fun () -> eval_model (Lazy.force info.F.perfect) f)
    else None
  in
  let fast_literal db l info =
    let fr = info.F.frag in
    if in_definite && fr.F.definite then
      Some (fun () -> definite_answer info (fun m -> lit_true m l))
    else if in_perfect && strat_gate fr then
      Some (fun () -> lit_true (Lazy.force info.F.perfect) l)
    else
      match l with
      | Lit.Neg x when in_occ && pos_gate fr ->
        (* Chan's cell: DDR/PWS ⊨ ¬x iff x is underivable. *)
        Some
          (fun () ->
            x >= Db.num_vars db
            || not (Interp.mem (Lazy.force info.F.closure) x))
      | _ -> None
  in
  let fast_exists info =
    let fr = info.F.frag in
    if in_definite && fr.F.definite then
      Some (fun () -> Lazy.force info.F.consistent)
    else if in_perfect && strat_gate fr then Some (fun () -> true)
    else None
  in
  {
    s with
    has_model =
      (fun eng db ->
        route eng ~op:op_exists db fast_exists (fun () -> s.has_model eng db));
    infer_formula =
      (fun eng db f ->
        route eng ~op:op_formula db (fast_formula f) (fun () ->
            s.infer_formula eng db f));
    infer_literal =
      (fun eng db l ->
        route eng ~op:op_literal db (fast_literal db l) (fun () ->
            s.infer_literal eng db l));
    witness = (fun eng db f -> scoped eng (fun () -> s.witness eng db f));
  }
