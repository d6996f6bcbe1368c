open Ddb_logic
open Ddb_db
open Ddb_engine

(* EGCWA — the Extended GCWA of Yahya & Henschen: the meaning of DB is the
   set of its minimal models,

     EGCWA(DB) = MM(DB),

   equivalently DB augmented with every integrity clause true in all minimal
   models.  Inference is truth in every minimal model; model existence is
   plain consistency — and O(1) on positive DDBs without integrity clauses
   (the all-true interpretation is always a model), which is Table 1's O(1)
   cell. *)

(* Public entry points scope themselves ("egcwa" bucket). *)
let scope eng f = Engine.scoped eng "egcwa" f

(* A minimal model satisfying F: one Σ₂ᵖ guess-and-check search. *)
let witness_in eng db f =
  scope eng (fun () ->
      let db = Semantics.for_query db f in
      Engine.minimal_witness eng db f)

let infer_formula_in eng db f =
  Option.is_none (witness_in eng db (Formula.not_ f))

let infer_literal_in eng db l = infer_formula_in eng db (Formula.of_lit l)

(* O(1) on the Table 1 fragment; one SAT call otherwise. *)
let has_model_in eng db =
  if Db.is_positive_ddb db then true
  else scope eng (fun () -> Engine.sat eng db)

let reference_models db = Models.brute_minimal_models db

let semantics_in eng : Semantics.t =
  {
    name = "egcwa";
    long_name = "Extended Generalized CWA (Yahya & Henschen)";
    applicable = (fun _ -> true);
    has_model = has_model_in eng;
    infer_formula = infer_formula_in eng;
    infer_literal = infer_literal_in eng;
    witness = (fun db f -> Semantics.two_valued (witness_in eng db f));
    reference_models;
  }
