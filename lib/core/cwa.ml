open Ddb_logic
open Ddb_db
open Ddb_engine

(* CWA — Reiter's original Closed World Assumption, included as the
   baseline the paper departs from:

     CWA(DB) = M( DB ∪ { ¬x : DB ⊭ x } )

   On disjunctive databases the augmentation is often inconsistent (the
   paper's motivating observation): from a ∨ b neither a nor b is entailed,
   so both ¬a and ¬b are added.  Deciding CWA-consistency is coNP-hard and
   in P^NP[O(log n)] but (most likely) not in coD^P [7,18].

   The closure set {x : DB ⊭ x} takes n entailment checks (n SAT calls);
   a witness (a model of the augmented theory satisfying F) and existence
   are then one SAT call on the augmented theory. *)

let has_model_in eng db =
  Engine.augmented_has_model eng db (Engine.non_entailed_atoms eng db)

let witness_in eng db f =
  let db = Semantics.for_query db f in
  Engine.augmented_witness eng db (Engine.non_entailed_atoms eng db) f

let infer_formula_in eng db f =
  Option.is_none (witness_in eng db (Formula.not_ f))

let infer_literal_in eng db l = infer_formula_in eng db (Formula.of_lit l)

let reference_models db =
  let models = Models.brute_models db in
  let n = Db.num_vars db in
  let negs =
    Interp.of_pred n (fun x -> List.exists (fun m -> not (Interp.mem m x)) models)
  in
  List.filter (fun m -> Interp.is_empty (Interp.inter m negs)) models

let semantics : Semantics.t =
  {
    name = "cwa";
    long_name = "Closed World Assumption (Reiter)";
    applicable = (fun _ -> true);
    has_model = has_model_in;
    infer_formula = infer_formula_in;
    infer_literal = infer_literal_in;
    witness = (fun eng db f -> Semantics.two_valued (witness_in eng db f));
    reference_models;
  }
