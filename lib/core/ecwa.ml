open Ddb_logic
open Ddb_db
open Ddb_engine

(* ECWA — the Extended CWA of Gelfond, Przymusinska & Przymusinski: for a
   partition ⟨P;Q;Z⟩ the meaning of DB is the set of (P;Z)-minimal models,

     ECWA_{P;Z}(DB) = MM(DB; P; Z).

   EGCWA is the special case Q = Z = ∅.  In the finite propositional case
   ECWA coincides with circumscription (see {!Circ}, implemented
   independently from the circumscription schema; the equivalence is a
   property test). *)

(* Public entry points scope themselves ("ecwa" bucket). *)
let scope eng f = Engine.scoped eng "ecwa" f

(* A (P;Z)-minimal model satisfying F.  The query must live inside the
   partitioned universe. *)
let witness_in eng db part f =
  if Formula.max_atom f >= Partition.universe_size part then
    invalid_arg "Ecwa: query atom outside the partition";
  scope eng (fun () -> Engine.minimal_witness ~part eng db f)

let infer_formula_in eng db part f =
  Option.is_none (witness_in eng db part (Formula.not_ f))

let infer_literal_in eng db part l =
  infer_formula_in eng db part (Formula.of_lit l)

(* O(1) on positive DDBs without integrity clauses; one SAT call
   otherwise. *)
let has_model_in eng db =
  scope eng (fun () -> if Db.is_positive_ddb db then true else Engine.sat eng db)

let reference_models db part = Models.brute_minimal_models ~part db

let total db = Partition.minimize_all (Db.num_vars db)

let semantics_in eng : Semantics.t =
  {
    name = "ecwa";
    long_name = "Extended CWA (Gelfond, Przymusinska & Przymusinski)";
    applicable = (fun _ -> true);
    has_model = has_model_in eng;
    infer_formula =
      (fun db f ->
        let db = Semantics.for_query db f in
        infer_formula_in eng db (total db) f);
    infer_literal = (fun db l -> infer_literal_in eng db (total db) l);
    witness =
      (fun db f ->
        let db = Semantics.for_query db f in
        Semantics.two_valued (witness_in eng db (total db) f));
    reference_models = (fun db -> reference_models db (total db));
  }
