open Ddb_logic
open Ddb_sat
open Ddb_db

(* CIRC — propositional circumscription, Lifschitz's schema

     Circ(DB; P; Z) = DB[P;Z] ∧ ¬∃P'Z' ( DB[P';Z'] ∧ P' < P )

   instantiated propositionally with a primed copy of the universe:
   variable x has id x, its primed copy id n + x.  Q-atoms are equated with
   their copies, P'-atoms are bounded by their originals, and a selector
   disjunction asserts P' ≠ P.  M is a model of the circumscription iff M
   satisfies DB and the schema query is unsatisfiable with the original
   variables pinned to M.

   In the finite propositional case CIRC ≡ ECWA (Lifschitz), so the
   record is {!Ecwa}'s under its own name: every decision procedure and
   the witness search are ECWA's, and a CIRC question reads the memo
   entries EGCWA/ECWA fill.  The schema is CIRC's independent checker
   only: it decides the reference models, against which the tests hold
   the record's answers. *)

let prime n x = n + x

(* Solver holding DB ∧ DB[P';Z'] ∧ (Q' = Q) ∧ (P' ≤ P) ∧ (P' ≠ P); atom
   x's primed copy has id [num_vars + x].  The P' ≠ P disjunction uses
   difference selectors d_x → x ∧ ¬x'. *)
let schema_solver db part =
  let n = Db.num_vars db in
  let solver = Solver.create ~num_vars:(2 * n) () in
  Solver.ensure_vars solver (2 * n);
  (* original database *)
  List.iter (Solver.add_clause solver) (Db.to_cnf db);
  (* primed copy *)
  List.iter
    (fun clause ->
      Solver.add_clause solver
        (List.map
           (function
             | Lit.Pos x -> Lit.Pos (prime n x)
             | Lit.Neg x -> Lit.Neg (prime n x))
           clause))
    (Db.to_cnf db);
  (* fixed atoms keep their value in the copy *)
  Interp.iter
    (fun q ->
      Solver.add_clause solver [ Lit.Neg q; Lit.Pos (prime n q) ];
      Solver.add_clause solver [ Lit.Pos q; Lit.Neg (prime n q) ])
    (Partition.q part);
  (* the copy only shrinks the minimized atoms *)
  Interp.iter
    (fun p -> Solver.add_clause solver [ Lit.Neg (prime n p); Lit.Pos p ])
    (Partition.p part);
  (* ... strictly: some p is dropped *)
  let selectors =
    Interp.fold
      (fun p acc ->
        let d = Solver.new_var solver in
        Solver.add_clause solver [ Lit.Neg d; Lit.Pos p ];
        Solver.add_clause solver [ Lit.Neg d; Lit.Neg (prime n p) ];
        Lit.Pos d :: acc)
      (Partition.p part) []
  in
  Solver.add_clause solver selectors;
  solver

(* Pin the original universe to [m]. *)
let pin n m =
  List.init n (fun x -> if Interp.mem m x then Lit.Pos x else Lit.Neg x)

(* Is some model strictly below [m] found through the schema? *)
let below_schema db schema m =
  match Solver.solve ~assumptions:(pin (Db.num_vars db) m) schema with
  | Solver.Unsat -> false
  | Solver.Sat -> true

let is_circ_model ?schema db part m =
  let schema = match schema with Some s -> s | None -> schema_solver db part in
  Db.satisfied_by m db && not (below_schema db schema m)

let reference_models db part =
  let schema = schema_solver db part in
  List.filter (fun m -> is_circ_model ~schema db part m) (Models.brute_models db)

(* ECWA's record at [part] (by default ⟨V;∅;∅⟩) under the name "circ",
   its reference models the schema's. *)
let semantics ?part () : Semantics.spec =
  {
    (Ecwa.semantics ?part ~name:"circ"
       ~long_name:"Circumscription (McCarthy / Lifschitz schema)" ())
    with
    reference_models = Semantics.at_total_db ?part (fun () -> reference_models) ();
  }
