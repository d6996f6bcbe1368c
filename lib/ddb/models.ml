open Ddb_logic
open Ddb_sat

(* Model-theoretic primitives over databases: M(DB), MM(DB), MM(DB;P;Z) —
   the objects every semantics in the paper is phrased in terms of.

   Each primitive has a SAT-backed engine (the default) and a brute-force
   reference used by the test suite on small universes. *)

let has_model db =
  match Solver.solve (Db.solver db) with
  | Solver.Sat -> true
  | Solver.Unsat -> false

(* The given partition, or the total one ⟨V;∅;∅⟩ over [n] atoms. *)
let or_total n = function Some p -> p | None -> Partition.minimize_all n

let all_models db = Enum.all_models ~num_vars:(Db.num_vars db) (Db.to_cnf db)

(* MM(DB;P;Z) restricted to a finite representative set: one minimal model
   per (P,Q)-section, each completed on Z by the solver.  (The full
   MM(DB;P;Z) also contains every Z-variant; for entailment questions use
   [minimal_entails] below, which quantifies over all of them.) *)
let minimal_models ?part db =
  Minimal.all_minimal (Db.theory db) (or_total (Db.num_vars db) part)

(* The search restriction "the model satisfies F", shared by every
   guess-and-check search: the asserting clauses of F over auxiliary
   variables numbered from [universe].  A solver holding them yields only
   models of F.  No formula: no restriction. *)
let guard ~universe = function
  | None -> []
  | Some f -> List.concat (fst (Cnf.assert_clauses ~next_var:universe f))

(* A (P;Z)-minimal model of DB satisfying F, by the Σ₂ᵖ guess-and-check
   search.  It is a witness for the brave query F, and a counterexample to
   the cautious query ¬F.  [theory], when given, is DB already compiled
   over the padded universe. *)
let minimal_witness ?part ?theory db formula =
  let n = max (Db.num_vars db) (Formula.max_atom formula + 1) in
  let db = Db.with_universe db n in
  let part = or_total n part in
  let theory = match theory with Some th -> th | None -> Db.theory db in
  Minimal.find_minimal_such_that
    ~extra:(guard ~universe:n (Some formula))
    theory part

(* SEM-entailment for semantics whose model set is MM(DB;P;Z): no minimal
   model satisfies ¬F. *)
let minimal_entails ?part db formula =
  Option.is_none (minimal_witness ?part db (Formula.not_ formula))

(* Classical entailment: DB |= F, one SAT call on DB ∧ ¬F. *)
let entails db formula =
  let n = max (Db.num_vars db) (Formula.max_atom formula + 1) in
  let solver = Db.solver db in
  List.iter (Solver.add_clause solver)
    (guard ~universe:n (Some (Formula.not_ formula)));
  match Solver.solve solver with
  | Solver.Sat -> false
  | Solver.Unsat -> true

(* --- brute-force references (small universes) --- *)

let brute_models db =
  List.filter (fun m -> Db.satisfied_by m db) (Interp.all (Db.num_vars db))

let brute_minimal_models ?part db =
  Minimal.minimal_of_models (or_total (Db.num_vars db) part) (brute_models db)
