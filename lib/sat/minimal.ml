open Ddb_logic

(* Minimal models with respect to the (P;Z)-preorder, built from SAT oracle
   calls.  This module is the engine room of GCWA/EGCWA/CCWA/ECWA/CIRC and of
   the stable-model check: a minimality test is one SAT call, and searching
   for a minimal model with a side condition is the guess-and-check loop of
   the paper's Sigma-2 upper bounds.

   A theory is a plain CNF over a fixed universe; databases are translated by
   the ddb layer.  It is compiled once: the first solver asked of it builds
   the image, a solver over its clauses that is never solved, and every
   solver handed out is a copy of the image.  A copy is in exactly the state
   [Solver.of_clauses] would build, so every search below makes the same
   oracle calls and finds the same models as with a fresh solver each; only
   the rebuilding (and its level-0 propagation) is saved. *)

type theory = {
  num_vars : int;
  clauses : Lit.t list list;
  mutable image : Solver.t option;
}

let theory ~num_vars clauses = { num_vars; clauses; image = None }

let n_compile = Ddb_obs.Trace.name "sat.compile"

let image theory =
  match theory.image with
  | Some s -> s
  | None ->
    let s =
      Ddb_obs.Trace.with_span n_compile (fun () ->
          Solver.of_clauses ~num_vars:theory.num_vars theory.clauses)
    in
    theory.image <- Some s;
    s

let solver_of theory = Solver.copy (image theory)

(* Assumptions pinning the Q-section of [m] and forbidding new P-atoms:
   the shared part of every "is there something strictly below m?" query. *)
let cone_assumptions part m =
  let q_pins =
    Interp.fold
      (fun x acc ->
        (if Interp.mem m x then Lit.Pos x else Lit.Neg x) :: acc)
      (Partition.q part) []
  in
  let p_caps =
    Interp.fold
      (fun x acc -> if Interp.mem m x then acc else Lit.Neg x :: acc)
      (Partition.p part) []
  in
  q_pins @ p_caps

(* Is there a model strictly below [m] in the (P;Z)-preorder?  One SAT call
   on: theory ∧ (Q = m∩Q) ∧ (P ⊆ m∩P) ∧ (P ≠ m∩P), on a solver holding
   exactly the theory.  The last conjunct is a disjunction over P∩m behind
   a selector variable, retired after the call. *)
let find_below solver part m =
  let p_in_m = Interp.to_list (Interp.inter (Partition.p part) m) in
  match p_in_m with
  | [] -> None (* nothing to shrink: m is minimal *)
  | _ -> (
    (* Selector literal activating the "strictly smaller" clause so the
       solver stays reusable for further queries on other models. *)
    let sel = Solver.new_var solver in
    Solver.add_clause solver
      (Lit.Neg sel :: List.map (fun x -> Lit.Neg x) p_in_m);
    let assumptions = Lit.Pos sel :: cone_assumptions part m in
    match Solver.solve ~assumptions solver with
    | Solver.Unsat ->
      (* Retire the selector so the clause can never fire again. *)
      Solver.add_clause solver [ Lit.Neg sel ];
      None
    | Solver.Sat ->
      let below = Solver.model ~universe:(Interp.universe_size m) solver in
      Solver.add_clause solver [ Lit.Neg sel ];
      Some below)

let is_minimal_with solver part m = Option.is_none (find_below solver part m)

let is_minimal theory part m = is_minimal_with (solver_of theory) part m

(* Descend from a model to a minimal model below it.  Terminates because
   |P ∩ m| strictly decreases. *)
let minimize_with solver part m =
  let rec go m =
    match find_below solver part m with None -> m | Some m' -> go m'
  in
  go m

let minimize theory part m = minimize_with (solver_of theory) part m

(* Some minimal model of the theory, if consistent. *)
let find_minimal theory part =
  let solver = solver_of theory in
  match Solver.solve solver with
  | Solver.Unsat -> None
  | Solver.Sat ->
    let m = Solver.model ~universe:theory.num_vars solver in
    Some (minimize_with solver part m)

(* Blocking clause excluding every interpretation whose Q-section equals m's
   and whose P-section contains m's.  Sound for minimal-model search: if m is
   not minimal, nothing in that cone is minimal either. *)
let cone_blocking part m =
  let block_p =
    Interp.fold
      (fun x acc -> if Interp.mem m x then Lit.Neg x :: acc else acc)
      (Partition.p part) []
  in
  let block_q =
    Interp.fold
      (fun x acc ->
        (if Interp.mem m x then Lit.Neg x else Lit.Pos x) :: acc)
      (Partition.q part) []
  in
  block_p @ block_q

(* What a [check] says of a minimal model: it passes, it fails, or it
   fails with a refutation [Refute dnf], a disjunction of conjunctions of
   literals over the universe that every model passing the check
   satisfies (PERF's ¬(N ≺ M) for the preferable model N the check found).
   A refutation goes into the candidate solver only, so it can exclude
   only models the check rejects. *)
type verdict = Pass | Fail | Refute of Lit.t list list

(* Assert a DNF: one clause over its terms, a one-literal term as itself
   and a longer one through a fresh auxiliary implying each of its
   literals.  Auxiliaries float like Z-atoms. *)
let add_dnf solver terms =
  let disjunct = function
    | [ l ] -> l
    | term ->
      let a = Solver.new_var solver in
      List.iter (fun l -> Solver.add_clause solver [ Lit.Neg a; l ]) term;
      Lit.Pos a
  in
  Solver.add_clause solver (List.map disjunct terms)

(* Does [verdict] pass?  A refutation is learned by [candidate_solver]. *)
let passes candidate_solver = function
  | Pass -> true
  | Fail -> false
  | Refute dnf ->
    add_dnf candidate_solver dnf;
    false

(* The minimal-model search loop, the guess-and-check loop of the paper's
   Σ₂ᵖ upper bounds and the one place that walks minimal models.  It looks
   for M ∈ MM(theory; P; Z) satisfying the [extra] clauses (which may
   mention auxiliary atoms beyond the universe, e.g. the asserting
   encoding of ¬F; auxiliaries float like Z-atoms) and passing [check]:

     candidate <- SAT(theory ∧ extra ∧ blocked);
     m̂ <- minimize candidate within (theory ∧ extra);
     if m̂ is (P;Z)-minimal for theory alone and [check m̂] passes: report m̂;
     block the cone of m̂ (and learn [check]'s refutation, if any) and
     iterate (with [first], stop at a report).

   Without [extra] the plain-minimality call is skipped: a descent in the
   theory itself ends at a minimal model.  An answer inside cone(m̂) has
   m̂'s (P,Q)-section, on which minimality (and [check], by its contract)
   alone depend, so the block never hides one; a refutation excludes only
   models that fail [check] (DESIGN.md §2).  The loop
   reports one model per qualifying minimal (P,Q)-section, newest first,
   each charged to the budget's enumeration cap. *)
let search ~first ~extra ~check theory part =
  let candidate_solver = solver_of theory in
  List.iter (Solver.add_clause candidate_solver) extra;
  (* Descents stay inside theory ∧ extra: that is what makes cone blocking
     complete (a descent can never jump over an unseen answer). *)
  let minimizer = solver_of theory in
  List.iter (Solver.add_clause minimizer) extra;
  let plain_checker = lazy (solver_of theory) in
  let n = theory.num_vars in
  let rec loop found =
    match Solver.solve candidate_solver with
    | Solver.Unsat -> found
    | Solver.Sat ->
      let m = Solver.model ~universe:n candidate_solver in
      let m_hat = minimize_with minimizer part m in
      let report =
        (extra = [] || is_minimal_with (Lazy.force plain_checker) part m_hat)
        && passes candidate_solver (check m_hat)
      in
      if report then Ddb_budget.Budget.on_model ();
      let found = if report then m_hat :: found else found in
      if report && first then found
      else begin
        Solver.add_clause candidate_solver (cone_blocking part m_hat);
        loop found
      end
  in
  loop []

let find_minimal_such_that ?(extra = []) ?(check = fun _ -> Pass) theory part
    =
  match search ~first:true ~extra ~check theory part with
  | m :: _ -> Some m
  | [] -> None

let all_minimal theory part =
  List.rev (search ~first:false ~extra:[] ~check:(fun _ -> Pass) theory part)

(* The harvest loop: the target literals (atoms of [pos] true, atoms of
   [neg] false) that hold in some (P;Z)-minimal model passing [check],
   from plain descents on one candidate solver and one minimizer:

     add (∨ missing target literals) to the candidate solver;
     candidate <- SAT(theory ∧ clauses so far);
     m̂ <- minimize candidate within the theory alone;
     if [check m̂] passes: drop m̂'s target literals from the missing ones;
     block the cone of m̂ (and learn [check]'s refutation) and iterate.

   Every m̂ is (P;Z)-minimal, so no minimality check is needed.  The
   missing set only shrinks, so each new "some missing literal" clause
   implies the earlier ones and stays a plain clause.  Sound and complete
   for targets over P ∪ Q when [check] gives one verdict per minimal
   (P,Q)-section: a minimal model inside cone(m̂) has m̂'s (P,Q)-section,
   so it has m̂'s target literals and verdict, and the block hides none
   (DESIGN.md §2).  Under the total partition that holds for every target
   and every [check]: cone(m̂) holds one minimal model, m̂ itself.  On
   UNSAT every model with a missing literal lies in a blocked cone, where
   a minimal one adds nothing, or violates a refutation, so it fails
   [check].  Each SAT round finds a minimal
   (P,Q)-section outside every earlier cone, so the rounds number at most
   the distinct minimal (P,Q)-sections plus one. *)
let harvest ?(check = fun _ -> Pass) theory part ~pos ~neg =
  let n = theory.num_vars in
  let candidate_solver = solver_of theory in
  let minimizer = solver_of theory in
  (* [missing_t]: the atoms of [pos] true in no model collected so far;
     [missing_f]: the atoms of [neg] false in none. *)
  let rec grow missing_t missing_f =
    if Interp.is_empty missing_t && Interp.is_empty missing_f then
      (missing_t, missing_f)
    else begin
      Solver.add_clause candidate_solver
        (Interp.fold
           (fun x acc -> Lit.Pos x :: acc)
           missing_t
           (Interp.fold (fun x acc -> Lit.Neg x :: acc) missing_f []));
      round missing_t missing_f
    end
  and round missing_t missing_f =
    match Solver.solve candidate_solver with
    | Solver.Unsat -> (missing_t, missing_f)
    | Solver.Sat ->
      let m = Solver.model ~universe:n candidate_solver in
      let m_hat = minimize_with minimizer part m in
      Solver.add_clause candidate_solver (cone_blocking part m_hat);
      if not (passes candidate_solver (check m_hat)) then
        round missing_t missing_f
      else
        let t = Interp.diff missing_t m_hat
        and f = Interp.inter missing_f m_hat in
        if Interp.equal t missing_t && Interp.equal f missing_f then
          round missing_t missing_f
        else grow t f
  in
  let missing_t, missing_f = grow pos neg in
  (Interp.diff pos missing_t, Interp.diff neg missing_f)

(* Reference implementation over explicit model lists (for tests). *)

let minimal_of_models part models =
  List.filter
    (fun m -> not (List.exists (fun m' -> Partition.lt part m' m) models))
    models
