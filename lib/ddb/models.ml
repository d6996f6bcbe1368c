open Ddb_logic
open Ddb_sat

(* Model-theoretic primitives over databases: M(DB), MM(DB), MM(DB;P;Z) —
   the objects every semantics in the paper is phrased in terms of.

   Each primitive has a SAT-backed engine (the default) and a brute-force
   reference used by the test suite on small universes. *)

let is_model db m = Db.satisfied_by m db

let has_model db =
  match Solver.solve (Db.solver db) with
  | Solver.Sat -> true
  | Solver.Unsat -> false

let some_model db =
  let solver = Db.solver db in
  match Solver.solve solver with
  | Solver.Sat -> Some (Solver.model ~universe:(Db.num_vars db) solver)
  | Solver.Unsat -> None

let all_models ?limit ?truncated db =
  Enum.all_models ?limit ?truncated ~num_vars:(Db.num_vars db) (Db.to_cnf db)

let minimal_models ?limit ?truncated db =
  Minimal.all_minimal ?limit ?truncated (Db.theory db)

let is_minimal_model ?part db m =
  let part =
    match part with Some p -> p | None -> Partition.minimize_all (Db.num_vars db)
  in
  is_model db m && Minimal.is_minimal (Db.theory db) part m

let some_minimal_model ?part db =
  let part =
    match part with Some p -> p | None -> Partition.minimize_all (Db.num_vars db)
  in
  Minimal.find_minimal (Db.theory db) part

(* MM(DB;P;Z) restricted to a finite representative set: all minimal models,
   *one per (P,Q)-section*, each canonically extended on Z by an arbitrary
   completion found by the solver.  (The full MM(DB;P;Z) also contains every
   Z-variant; for entailment questions use [entails_*] below, which quantify
   over all of them.) *)
let minimal_section_models ?limit ?truncated db part =
  let theory = Db.theory db in
  let candidate = Minimal.solver_of theory in
  let minimizer = Minimal.solver_of theory in
  let n = Db.num_vars db in
  let acc = ref [] in
  let budget = ref (match limit with Some k -> k | None -> -1) in
  let continue = ref true in
  while !continue && !budget <> 0 do
    match Solver.solve candidate with
    | Solver.Unsat -> continue := false
    | Solver.Sat ->
      let m = Solver.model ~universe:n candidate in
      let m_min = Minimal.minimize_with minimizer part m in
      acc := m_min :: !acc;
      if !budget > 0 then decr budget;
      Solver.add_clause candidate (Minimal.cone_blocking part m_min)
  done;
  if !continue && !budget = 0 then
    Option.iter (fun r -> r := true) truncated;
  List.rev !acc

(* The search restriction "the model satisfies F", shared by every
   guess-and-check search: the Tseitin clauses asserting F over auxiliary
   variables numbered from [universe], and the matching check the searches
   screen each candidate model with.  No formula: no restriction. *)
let guard ~universe = function
  | None -> ([], fun _ -> true)
  | Some f ->
    let clauses, _, out = Cnf.tseitin ~next_var:universe f in
    ([ out ] :: clauses, fun m -> Formula.eval m f)

(* A (P;Z)-minimal model of DB satisfying F, by the Σ₂ᵖ guess-and-check
   search.  It is a witness for the brave query F, and a counterexample to
   the cautious query ¬F. *)
let minimal_witness ?part db formula =
  let n = max (Db.num_vars db) (Formula.max_atom formula + 1) in
  let db = Db.with_universe db n in
  let part =
    match part with Some p -> p | None -> Partition.minimize_all n
  in
  let extra, _ = guard ~universe:n (Some formula) in
  Minimal.find_minimal_such_that ~extra (Db.theory db) part

(* SEM-entailment for semantics whose model set is MM(DB;P;Z): no minimal
   model satisfies ¬F. *)
let minimal_entails ?part db formula =
  Option.is_none (minimal_witness ?part db (Formula.not_ formula))

(* Classical entailment: DB |= F, one SAT call on DB ∧ ¬F. *)
let entails db formula =
  let n = max (Db.num_vars db) (Formula.max_atom formula + 1) in
  let solver = Db.solver db in
  Solver.ensure_vars solver n;
  let _ = Solver.add_formula solver ~next_var:n (Formula.not_ formula) in
  match Solver.solve solver with
  | Solver.Sat -> false
  | Solver.Unsat -> true

(* --- brute-force references (small universes) --- *)

let brute_models db =
  List.filter (fun m -> is_model db m) (Interp.all (Db.num_vars db))

let brute_minimal_models ?part db =
  let part =
    match part with
    | Some p -> p
    | None -> Partition.minimize_all (Db.num_vars db)
  in
  Minimal.minimal_of_models part (brute_models db)
