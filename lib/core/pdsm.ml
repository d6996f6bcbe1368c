open Ddb_logic
open Ddb_sat
open Ddb_db

(* PDSM — Przymusinski's Partial (3-valued) Disjunctive Stable Model
   semantics, extending the well-founded semantics: an interpretation
   I : V → {0, ½, 1} is a partial stable model iff I is a ≤-minimal
   (pointwise truth-order) 3-valued model of the reduct DB^I, where the
   reduct replaces each ¬c by the constant 1 − I(c).

   SAT encoding of a 3-valued interpretation J over universe n: two boolean
   variables per atom,
       jt(x) = x        "J(x) = 1"
       ju(x) = n + x    "J(x) ≥ ½"
   with jt(x) → ju(x).  Kleene satisfaction of a rule decomposes into the
   two implications  body ≥ 1 ⇒ head ≥ 1  and  body ≥ ½ ⇒ head ≥ ½, each a
   clause.  The minimality check "is there J < I with J ⊨ DB^I" is then one
   SAT call; candidate enumeration uses the same encoding on DB itself.

   Inference: SEM(DB) ⊨ F iff F evaluates to 1 (Kleene) in every partial
   stable model.  Total partial stable models coincide with DSM models — a
   property test. *)

let jt x = x
let ju ~n x = n + x

(* Clauses asserting that the encoded J satisfies the reduct of [db] by
   [i]. *)
let reduct_satisfaction_clauses ~n db i =
  List.concat_map
    (fun c ->
      let r = Three_valued.reduce_clause i c in
      let strong =
        (* body ≥ 1 ⇒ head ≥ 1, needed only when the floor allows 1 *)
        match r.Three_valued.floor with
        | Three_valued.T ->
          [
            List.map (fun b -> Lit.Neg (jt b)) r.Three_valued.pos
            @ List.map (fun h -> Lit.Pos (jt h)) r.Three_valued.head;
          ]
        | Three_valued.U | Three_valued.F -> []
      in
      let weak =
        (* body ≥ ½ ⇒ head ≥ ½, needed when the floor allows ≥ ½ *)
        match r.Three_valued.floor with
        | Three_valued.T | Three_valued.U ->
          [
            List.map (fun b -> Lit.Neg (ju ~n b)) r.Three_valued.pos
            @ List.map (fun h -> Lit.Pos (ju ~n h)) r.Three_valued.head;
          ]
        | Three_valued.F -> []
      in
      strong @ weak)
    (Db.clauses db)

(* Clauses asserting that the encoded J is a 3-valued model of [db] itself
   (negative bodies evaluated on J): body ≥ 1 needs every ¬c at value 1,
   i.e. J(c) = 0; body ≥ ½ needs J(c) ≤ ½. *)
let model_clauses ~n db =
  List.concat_map
    (fun c ->
      let head = Clause.head c
      and pos = Clause.body_pos c
      and neg = Clause.body_neg c in
      let strong =
        List.map (fun b -> Lit.Neg (jt b)) pos
        @ List.map (fun x -> Lit.Pos (ju ~n x)) neg
        @ List.map (fun h -> Lit.Pos (jt h)) head
      in
      let weak =
        List.map (fun b -> Lit.Neg (ju ~n b)) pos
        @ List.map (fun x -> Lit.Pos (jt x)) neg
        @ List.map (fun h -> Lit.Pos (ju ~n h)) head
      in
      [ strong; weak ])
    (Db.clauses db)

let consistency_clauses ~n =
  List.init n (fun x -> [ Lit.Neg (jt x); Lit.Pos (ju ~n x) ])

let decode ~n m =
  Three_valued.make
    ~tru:(Interp.of_pred n (fun x -> Interp.mem m (jt x)))
    ~und:
      (Interp.of_pred n (fun x ->
           Interp.mem m (ju ~n x) && not (Interp.mem m (jt x))))

(* Is some 3-valued model of DB^I strictly below I?  One SAT call. *)
let find_below db i =
  let n = Db.num_vars db in
  let solver = Solver.create ~num_vars:(2 * n) () in
  Solver.ensure_vars solver (2 * n);
  List.iter (Solver.add_clause solver) (consistency_clauses ~n);
  List.iter (Solver.add_clause solver) (reduct_satisfaction_clauses ~n db i);
  (* J ≤ I pointwise *)
  for x = 0 to n - 1 do
    match Three_valued.value i x with
    | Three_valued.T -> ()
    | Three_valued.U -> Solver.add_clause solver [ Lit.Neg (jt x) ]
    | Three_valued.F -> Solver.add_clause solver [ Lit.Neg (ju ~n x) ]
  done;
  (* J ≠ I: some atom strictly drops *)
  let strict =
    List.concat
      (List.init n (fun x ->
           match Three_valued.value i x with
           | Three_valued.T -> [ Lit.Neg (jt x) ]
           | Three_valued.U -> [ Lit.Neg (ju ~n x) ]
           | Three_valued.F -> []))
  in
  Solver.add_clause solver strict;
  match Solver.solve solver with
  | Solver.Unsat -> None
  | Solver.Sat -> Some (decode ~n (Solver.model ~universe:(2 * n) solver))

let satisfies_db db i =
  List.for_all (Three_valued.satisfies_clause i) (Db.clauses db)

let is_partial_stable db i =
  satisfies_db db i && Option.is_none (find_below db i)

(* Enumerate 3-valued models of DB (via the 2n-variable encoding with exact
   blocking) and screen with the stability check. *)
let find_such_that pred db =
  let n = Db.num_vars db in
  let solver = Solver.create ~num_vars:(2 * n) () in
  Solver.ensure_vars solver (2 * n);
  List.iter (Solver.add_clause solver) (consistency_clauses ~n);
  List.iter (Solver.add_clause solver) (model_clauses ~n db);
  let found = ref None in
  Enum.iter ~universe:(2 * n) solver (fun m ->
      let i = decode ~n m in
      if pred i && is_partial_stable db i then begin
        found := Some i;
        `Stop
      end
      else `Continue);
  !found

let find_partial_stable_such_that ?query db =
  find_such_that
    (match query with
    | None -> fun _ -> true
    | Some f -> fun i -> Three_valued.eval_formula i f = Three_valued.T)
    db

let witness db f =
  find_partial_stable_such_that ~query:f (Semantics.for_query db f)

(* Not the witness of ¬F: a partial stable model giving F the value ½
   refutes F without giving ¬F the value 1. *)
let infer_formula db f =
  let db = Semantics.for_query db f in
  Option.is_none
    (find_such_that
       (fun i -> Three_valued.eval_formula i f <> Three_valued.T)
       db)

let infer_literal db l = infer_formula db (Formula.of_lit l)

let has_model db = Option.is_some (find_partial_stable_such_that db)

let partial_stable_models db =
  (* Reference engine: all 3^n interpretations, screened. *)
  List.filter (fun i -> is_partial_stable db i)
    (Three_valued.all (Db.num_vars db))

let reference_models db =
  List.filter_map Three_valued.to_two_valued_opt (partial_stable_models db)

let semantics : Semantics.t =
  {
    name = "pdsm";
    long_name = "Partial Disjunctive Stable Models (Przymusinski)";
    applicable = (fun _ -> true);
    has_model;
    infer_formula;
    infer_literal;
    witness =
      (fun db f ->
        Option.map (fun i -> Semantics.Three_valued i) (witness db f));
    (* Note: for the packed record the reference model set is projected to
       the *total* partial stable models; use [partial_stable_models] for
       the full 3-valued picture. *)
    reference_models;
  }

(* Engine routing: answers memoized and instrumented per semantics. *)
let semantics_in eng = Semantics.via_engine eng semantics
