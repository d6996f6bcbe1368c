open Ddb_logic
open Ddb_db
module Engine = Ddb_engine.Engine
module F = Ddb_frag.Frag

(* Fast-path dispatch: route a semantics' decision problems to dedicated
   polynomial algorithms when the engine's fragment classifier certifies a
   P cell of Table 1/2, falling back to the generic oracle procedure (and
   recording a miss) otherwise.

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
     relevancy-graph closure (Chan); GCWA/CCWA existence is plain
     consistency, and the all-true interpretation is always a model.

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
let pos_exists_family = [ "gcwa"; "ccwa" ]

let strat_gate (fr : F.t) = fr.F.stratified && fr.F.normal && fr.F.no_integrity
let pos_gate (fr : F.t) = fr.F.positive && fr.F.no_integrity

(* Inference against the definite database's model set: evaluation in the
   least model, vacuously true when the integrity clauses empty it. *)
let definite_answer info k =
  if Lazy.force info.F.consistent then k (Lazy.force info.F.least) else true

let wrap eng (s : Semantics.t) : Semantics.t =
  let sem = s.Semantics.name in
  let in_definite = List.mem sem definite_family in
  let in_perfect = List.mem sem perfect_family in
  let in_occ = List.mem sem occ_family in
  let in_pos_exists = List.mem sem pos_exists_family in
  if not (in_definite || in_perfect || in_occ || in_pos_exists) then s
    (* pdsm: no routed cell, leave the record untouched *)
  else begin
    (* [fast info] decides the route from the cached classification, all
       inside the semantics scope: a hit runs as one budget-probed
       fast-path op, a fall-through records the miss and runs the generic
       procedure. *)
    let route ~op db fast fallback =
      if not (Engine.fastpath_enabled eng) then fallback ()
      else
        Engine.scoped eng sem (fun () ->
            match fast (Engine.classify eng db) with
            | Some thunk ->
              Engine.fastpath_hit eng ~op:(sem ^ "/" ^ op) db thunk
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
              || not (Interp.mem (Lazy.force info.F.derivable) x))
        | _ -> None
    in
    let fast_exists info =
      let fr = info.F.frag in
      if in_definite && fr.F.definite then
        Some (fun () -> Lazy.force info.F.consistent)
      else if in_perfect && strat_gate fr then Some (fun () -> true)
      else if in_pos_exists && pos_gate fr then Some (fun () -> true)
      else None
    in
    {
      s with
      has_model =
        (fun db ->
          route ~op:"exists" db fast_exists (fun () ->
              s.Semantics.has_model db));
      infer_formula =
        (fun db f ->
          route ~op:"formula" db (fast_formula f) (fun () ->
              s.Semantics.infer_formula db f));
      infer_literal =
        (fun db l ->
          route ~op:"literal" db (fast_literal db l) (fun () ->
              s.Semantics.infer_literal db l));
    }
  end
