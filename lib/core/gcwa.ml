open Ddb_logic
open Ddb_db
open Ddb_engine

(* GCWA — Minker's Generalized Closed World Assumption.

     GCWA(DB) = { M ∈ M(DB) : ∀x ∈ V.  MM(DB) ⊨ ¬x  ⇒  M ⊨ ¬x }

   i.e. the models of DB augmented with ¬x for every atom false in all
   minimal models.  Key facts used below:
     - MM(DB) ⊆ GCWA(DB), so GCWA(DB) ≠ ∅ iff DB is consistent;
     - GCWA(DB) ⊨ ¬x  iff  no minimal model contains x (one minimal-model
       oracle query — the paper's "it suffices to check a restricted set of
       DB models");
     - GCWA(DB) ⊨ F reduces to classical entailment from the augmented
       theory once the support set S = {x : x true in some minimal model}
       is known: a GCWA model satisfying ¬F is one SAT call away. *)

let part db = Partition.minimize_all (Db.num_vars db)

(* Every public entry point scopes itself, so solver effort is attributed
   to the "gcwa" bucket no matter how the engine path is reached; nested
   scopes keep attributing to the outermost one. *)
let scope eng f = Engine.scoped eng "gcwa" f

let negated_atoms_in eng db =
  scope eng (fun () -> Engine.negated_atoms eng db (part db))

(* GCWA(DB) ⊨ ¬x: no minimal model contains x (vacuously if none).  Atoms
   outside the universe are false by closure. *)
let entails_neg_literal_in eng db x =
  if x >= Db.num_vars db then true
  else scope eng (fun () -> not (Engine.in_some_minimal eng db (part db) x))

(* A model of the augmented theory satisfying F. *)
let witness_in eng db f =
  scope eng (fun () ->
      let db = Semantics.for_query db f in
      Engine.augmented_witness eng db (negated_atoms_in eng db) f)

(* GCWA(DB) ⊨ F: no model of the augmented theory satisfies ¬F. *)
let infer_formula_in eng db f =
  Option.is_none (witness_in eng db (Formula.not_ f))

let infer_literal_in eng db = function
  | Lit.Pos x -> infer_formula_in eng db (Formula.Atom x)
  | Lit.Neg x -> entails_neg_literal_in eng db x

let has_model_in eng db = scope eng (fun () -> Engine.sat eng db)

(* Reference engine. *)
let reference_models db =
  let n = Db.num_vars db in
  let minimal = Models.brute_minimal_models db in
  let negs =
    Interp.of_pred n (fun x ->
        not (List.exists (fun m -> Interp.mem m x) minimal))
  in
  List.filter
    (fun m -> Interp.is_empty (Interp.inter m negs))
    (Models.brute_models db)

let semantics_in eng : Semantics.t =
  {
    name = "gcwa";
    long_name = "Generalized Closed World Assumption (Minker)";
    applicable = (fun _ -> true);
    has_model = has_model_in eng;
    infer_formula = infer_formula_in eng;
    infer_literal = infer_literal_in eng;
    witness = (fun db f -> Semantics.two_valued (witness_in eng db f));
    reference_models;
  }
