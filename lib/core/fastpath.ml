open Ddb_logic
module Engine = Ddb_engine.Engine
module F = Ddb_frag.Frag

(* The registry's one wrapper around every semantics record.  It does two
   things:

   - Attribution.  Every field ([has_model], [infer_formula],
     [infer_literal], [witness]) runs inside [Engine.scoped] under the
     record's scope handle, with the fast path on or off and for every record, pdsm included.  No other
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

(* The routed cell a question lands in, picked from the cached
   classification: evaluation in the definite database's least model
   (vacuously true when its integrity clauses empty the model set), in
   the stratified database's perfect model, or outside the positive
   database's occurrence closure (Chan's cell, ¬x only).  A question in
   no routed cell gets [None]; every [Some cell] is a constant, so picking
   one allocates nothing. *)
type cell = Least | Perfect | Underivable

(* A routed cell's answer, [holds] evaluating the query in a model. *)
let answer holds cell info q =
  match cell with
  | Least ->
    (not (Lazy.force info.F.consistent))
    || holds (Lazy.force info.F.closure) q
  | Perfect -> holds (Lazy.force info.F.perfect) q
  | Underivable -> holds (Lazy.force info.F.closure) q

let formula_answer cell info f = answer eval_model cell info f
let literal_answer cell info l = answer lit_true cell info l

(* Existence: the definite database's consistency, and O(1) on a
   stratified one. *)
let exists_answer cell info () =
  match cell with
  | Least -> Lazy.force info.F.consistent
  | Perfect | Underivable -> true

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
     its work, wall time and [scope.<name>] span are the semantics' own.
     The handle and the fast-path ops are resolved once per record. *)
  let h = Engine.scope sem in
  let op_exists = Engine.op (sem ^ "/exists")
  and op_formula = Engine.op (sem ^ "/formula")
  and op_literal = Engine.op (sem ^ "/literal") in
  let model_cell info =
    let fr = info.F.frag in
    if in_definite && fr.F.definite then Some Least
    else if in_perfect && strat_gate fr then Some Perfect
    else None
  in
  let exists_cell info () = model_cell info
  and formula_cell info (_ : Formula.t) = model_cell info
  and literal_cell info l =
    match (model_cell info, l) with
    | None, Lit.Neg _ when in_occ && pos_gate info.F.frag -> Some Underivable
    | cell, _ -> cell
  in
  (* The route, from the cached classification: a hit is evaluated as one
     budget-probed fast-path op, a fall-through records the miss and runs
     the generic procedure.  The question's arguments are passed, not
     captured, so an untraced question allocates no closure. *)
  let ask ~op cell_of answer generic eng db q =
    if not (routed && Engine.fastpath_enabled eng) then generic eng db q
    else
      let info = Engine.classify eng db in
      match cell_of info q with
      | None ->
        Engine.fastpath_miss eng;
        generic eng db q
      | Some cell -> Engine.fastpath_hit eng ~op db answer cell info q
  in
  let has_model eng db () = s.has_model eng db in
  let exists eng db () =
    ask ~op:op_exists exists_cell exists_answer has_model eng db ()
  and formula eng db f =
    ask ~op:op_formula formula_cell formula_answer s.infer_formula eng db f
  and literal eng db l =
    ask ~op:op_literal literal_cell literal_answer s.infer_literal eng db l
  in
  {
    s with
    has_model = (fun eng db -> Engine.scoped eng h exists db ());
    infer_formula = (fun eng db f -> Engine.scoped eng h formula db f);
    infer_literal = (fun eng db l -> Engine.scoped eng h literal db l);
    witness = (fun eng db f -> Engine.scoped eng h s.witness db f);
  }
