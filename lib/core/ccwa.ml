open Ddb_logic
open Ddb_db
open Ddb_engine

(* CCWA — the Careful Closed World Assumption of Gelfond & Przymusinska.

   Given a partition ⟨P;Q;Z⟩, CCWA adds ¬x for every x ∈ P false in all
   (P;Z)-minimal models:

     CCWA(DB) = { M ∈ M(DB) : ∀x ∈ P.  MM(DB;P;Z) ⊨ ¬x  ⇒  M ⊨ ¬x }

   Minker's GCWA is the special case Q = Z = ∅, and the registry's "gcwa"
   record is this module's record at ⟨V;∅;∅⟩.  Key facts used below:
     - MM(DB;P;Z) ⊆ CCWA(DB), so CCWA(DB) ≠ ∅ iff DB is consistent;
     - CCWA(DB) ⊨ ¬x for x ∈ P iff no (P;Z)-minimal model contains x (one
       minimal-model oracle query — the paper's "it suffices to check a
       restricted set of DB models");
     - CCWA(DB) ⊨ F reduces to classical entailment from the augmented
       theory once the support set S = {x ∈ P : x true in some minimal
       model} is known: a CCWA model satisfying ¬F is one SAT call away. *)

(* Public entry points scope themselves ("ccwa" bucket); nesting keeps
   attributing to the outermost scope. *)
let scope eng f = Engine.scoped eng "ccwa" f

let negated_atoms_in eng db part =
  scope eng (fun () -> Engine.negated_atoms eng db part)

(* Only P-atoms are closed: x ∈ P is one minimal-model query, other atoms
   fall back to the augmented theory.  Atoms outside the universe are
   false by closure. *)
let entails_neg_literal_in eng db part x =
  if x >= Partition.universe_size part then true
  else
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

(* Packed at ⟨V;∅;∅⟩, every field in the record's own scope. *)
let semantics_in ~name ~long_name eng : Semantics.t =
  let scoped f = Engine.scoped eng name f in
  let packed formula_of k db q =
    scoped (fun () -> Semantics.at_total formula_of (k eng) db q)
  in
  {
    name;
    long_name;
    applicable = (fun _ -> true);
    (* MM(DB;P;Z) ⊆ CCWA(DB): CCWA is consistent iff DB is. *)
    has_model = (fun db -> scoped (fun () -> Engine.sat eng db));
    infer_formula = packed Fun.id infer_formula_in;
    infer_literal = packed Formula.of_lit infer_literal_in;
    witness =
      (fun db f -> Semantics.two_valued (packed Fun.id witness_in db f));
    reference_models =
      (fun db -> reference_models db (Partition.minimize_all (Db.num_vars db)));
  }

let infer_formula db part f =
  infer_formula_in (Engine.create ~cache:false ~fastpath:false ()) db part f
