open Ddb_logic
open Ddb_sat
open Ddb_db

(* CIRC — propositional circumscription, implemented independently of the
   minimal-model machinery, straight from Lifschitz's schema

     Circ(DB; P; Z) = DB[P;Z] ∧ ¬∃P'Z' ( DB[P';Z'] ∧ P' < P )

   instantiated propositionally with a primed copy of the universe:
   variable x has id x, its primed copy id n + x.  Q-atoms are equated with
   their copies, P'-atoms are bounded by their originals, and a selector
   disjunction asserts P' ≠ P.  M is a model of the circumscription iff M
   satisfies DB and the schema query is unsatisfiable with the original
   variables pinned to M.

   The paper uses CIRC ≡ ECWA (Lifschitz).  Existence and formula
   inference here do not: they run on the syntactic schema, and their
   agreement with {!Ecwa}'s assumption-based minimality checks is a tested
   property.  Literal inference and witnesses do use the theorem: they are
   ECWA's procedures ({!Ecwa.infer_literal_in}, {!Ecwa.witness_in}), so a
   literal reads the closed-world oracles GCWA/CCWA memoize.  The schema's
   reference models check those answers in every engine configuration. *)

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

(* A model strictly below [m] found through the schema, if any. *)
let find_below_schema db schema m =
  let n = Db.num_vars db in
  match Solver.solve ~assumptions:(pin n m) schema with
  | Solver.Unsat -> None
  | Solver.Sat ->
    let full = Solver.model ~universe:(2 * n) schema in
    Some (Interp.of_pred n (fun x -> Interp.mem full (prime n x)))

let is_circ_model ?schema db part m =
  let schema = match schema with Some s -> s | None -> schema_solver db part in
  Db.satisfied_by m db && Option.is_none (find_below_schema db schema m)

(* CIRC_{P;Z}(DB) ⊨ F by counterexample search, mirroring the minimality
   loop but powered exclusively by the schema. *)
let infer_formula db part f =
  if Formula.max_atom f >= Partition.universe_size part then
    invalid_arg "Circ: query atom outside the partition";
  let n = Db.num_vars db in
  let schema = schema_solver db part in
  let candidate = Db.solver db in
  Solver.ensure_vars candidate (2 * n); (* keep clear of primed ids *)
  List.iter (Solver.add_clause candidate)
    (Models.guard ~universe:(2 * n) (Some (Formula.not_ f)));
  let rec descend m =
    match find_below_schema db schema m with
    | None -> m
    | Some m' -> descend m'
  in
  let rec loop () =
    match Solver.solve candidate with
    | Solver.Unsat -> true
    | Solver.Sat ->
      let m = Solver.model ~universe:n candidate in
      let m_circ = descend m in
      if Interp.equal m_circ m then false (* circ model refuting F *)
      else if not (Formula.eval m_circ f) then false
      else begin
        Solver.add_clause candidate (Minimal.cone_blocking part m);
        loop ()
      end
  in
  loop ()

let has_model db =
  if Db.is_positive_ddb db then true else Models.has_model db

let reference_models db part =
  let schema = schema_solver db part in
  List.filter (fun m -> is_circ_model ~schema db part m) (Models.brute_models db)

(* Asked at [part], by default ⟨V;∅;∅⟩; existence and formula answers
   memoized per semantics and partition.  A witness is a (P;Z)-minimal
   model satisfying F — a circumscription model by Lifschitz's theorem —
   so witnesses and literals are ECWA's.  The engine ops behind ECWA's
   literals memoize themselves and share ECWA's entries, so that field
   stays outside [via_engine]'s answer memo: one tick per question, not
   two. *)
let semantics ?part () : Semantics.spec =
  let s =
    Semantics.parametric ?part ~name:"circ"
      ~long_name:"Circumscription (McCarthy / Lifschitz schema)"
      ~applicable:(fun _ -> true)
      ~has_model:(fun _ db -> has_model db)
      ~infer_formula:(fun _ db part f -> infer_formula db part f)
      ~infer_literal:Ecwa.infer_literal_in ~witness:Ecwa.witness_in
      reference_models
  in
  { (Semantics.via_engine ?part s) with infer_literal = s.infer_literal }
