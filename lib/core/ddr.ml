open Ddb_logic
open Ddb_db
open Ddb_engine

(* DDR — the Disjunctive Database Rule of Ross & Topor, equivalent to the
   Weak GCWA of Rajasekar, Lobo & Minker:

     DDR(DB) = { M ∈ M(DB) : M ⊨ ¬x for every atom x not occurring in T↑ω }

   where T↑ω is the state fixpoint of the consequence operator (see
   {!Ddb_db.Tp}).  The atoms occurring in T↑ω are computable in polynomial
   time (occurrence closure), which yields the paper's tractable cells:
     - without integrity clauses, literal inference is polynomial with *no*
       oracle calls at all (Chan);
     - with integrity clauses, literal and formula inference are one SAT
       call (coNP), because the augmented theory may be inconsistent in
       ways T is blind to (the paper's Example 3.1). *)

let check db =
  if Db.has_negation db then
    invalid_arg "Ddr: the DDR is defined for DDDBs (no negation)"

let negated_atoms db =
  Interp.diff (Interp.full (Db.num_vars db)) (Tp.occurrence_closure db)

(* Polynomial *negative*-literal inference for the no-integrity-clause case
   (Chan's tractable cell; closed-world queries ask for negative
   information):

     DDR(DB) ⊨ ¬x  iff  x ∉ occ.

   Why: the occurrence set itself is a model of the augmented theory (every
   fired clause has all its head atoms in occ), so if x ∈ occ there is a
   DDR model containing x; and if x ∉ occ the augmentation contains ¬x.

   Positive literals are classical entailment DB ⊨ x (on the Table 1
   fragment M∩occ is again a model, so the augmentation adds nothing for
   positive queries); that problem is coNP-complete even without integrity
   clauses, so it goes through the SAT engine like general formulas. *)
let entails_neg_literal_poly db x =
  check db;
  if Db.has_integrity db then
    invalid_arg "Ddr.entails_neg_literal_poly: integrity clauses present";
  x >= Db.num_vars db || not (Interp.mem (Tp.occurrence_closure db) x)

let reference_models db =
  check db;
  let negs = negated_atoms db in
  List.filter
    (fun m -> Interp.is_empty (Interp.inter m negs))
    (Models.brute_models db)

(* The SAT-call cells go through the engine: entailment from the augmented
   theory and existence with integrity clauses are one SAT call each.  The
   occurrence-closure cells stay oracle-free. *)
let witness_in eng db f =
  check db;
  let db = Semantics.for_query db f in
  Engine.augmented_witness eng db (negated_atoms db) f

let infer_formula_in eng db f =
  Option.is_none (witness_in eng db (Formula.not_ f))

let infer_literal_in eng db l =
  match l with
  | Lit.Neg x when not (Db.has_integrity db) -> entails_neg_literal_poly db x
  | Lit.Neg _ | Lit.Pos _ -> infer_formula_in eng db (Formula.of_lit l)

let has_model_in eng db =
  check db;
  if not (Db.has_integrity db) then true (* occ itself is a DDR model *)
  else Engine.augmented_has_model eng db (negated_atoms db)

let semantics : Semantics.t =
  {
    name = "ddr";
    long_name = "Disjunctive Database Rule (Ross & Topor) = Weak GCWA";
    applicable = (fun db -> not (Db.has_negation db));
    has_model = has_model_in;
    infer_formula = infer_formula_in;
    infer_literal = infer_literal_in;
    witness = (fun eng db f -> Semantics.two_valued (witness_in eng db f));
    reference_models;
  }
