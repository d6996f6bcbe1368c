open Ddb_logic
open Ddb_db
open Ddb_engine

(* CCWA — the Careful Closed World Assumption of Gelfond & Przymusinska.

   Given a partition ⟨P;Q;Z⟩, CCWA adds ¬x for every x ∈ P false in all
   (P;Z)-minimal models:

     CCWA(DB) = { M ∈ M(DB) : ∀x ∈ P.  MM(DB;P;Z) ⊨ ¬x  ⇒  M ⊨ ¬x }

   GCWA is the special case Q = Z = ∅.  All entry points take the partition
   explicitly; [semantics_in] packs the GCWA-compatible default (minimize
   everything) for registry use. *)

(* Public entry points scope themselves ("ccwa" bucket); nesting keeps
   attributing to the outermost scope. *)
let scope eng f = Engine.scoped eng "ccwa" f

let negated_atoms_in eng db part =
  scope eng (fun () -> Engine.negated_atoms eng db part)

(* Only P-atoms are closed: x ∈ P is one minimal-model query, other atoms
   fall back to the augmented theory. *)
let entails_neg_literal_in eng db part x =
  scope eng (fun () ->
      if not (Interp.mem (Partition.p part) x) then
        Engine.augmented_entails eng db
          (negated_atoms_in eng db part)
          (Formula.Not (Formula.Atom x))
      else not (Engine.in_some_minimal eng db part x))

(* A model of the augmented theory satisfying F.  The query must live
   inside the partitioned universe. *)
let witness_in eng db part f =
  if Formula.max_atom f >= Partition.universe_size part then
    invalid_arg "Ccwa: query atom outside the partition";
  scope eng (fun () ->
      Engine.augmented_witness eng db (negated_atoms_in eng db part) f)

let infer_formula_in eng db part f =
  Option.is_none (witness_in eng db part (Formula.not_ f))

let infer_literal_in eng db part = function
  | Lit.Neg x -> entails_neg_literal_in eng db part x
  | Lit.Pos x ->
    scope eng (fun () ->
        Engine.augmented_entails eng db
          (negated_atoms_in eng db part)
          (Formula.Atom x))

(* MM(DB;P;Z) ⊆ CCWA(DB) (a minimal model can only contain supported
   P-atoms), so CCWA is consistent iff DB is. *)
let has_model_in eng db = scope eng (fun () -> Engine.sat eng db)

let reference_models db part =
  let minimal = Models.brute_minimal_models ~part db in
  let negs =
    Interp.of_pred (Db.num_vars db) (fun x ->
        Interp.mem (Partition.p part) x
        && not (List.exists (fun m -> Interp.mem m x) minimal))
  in
  List.filter
    (fun m -> Interp.is_empty (Interp.inter m negs))
    (Models.brute_models db)

let total db = Partition.minimize_all (Db.num_vars db)

let semantics_in eng : Semantics.t =
  {
    name = "ccwa";
    long_name = "Careful Closed World Assumption (Gelfond & Przymusinska)";
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

let infer_formula db part f =
  infer_formula_in (Engine.create ~cache:false ~fastpath:false ()) db part f
