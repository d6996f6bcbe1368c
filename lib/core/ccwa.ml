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

(* A model of the augmented theory satisfying F.  The query must live
   inside the partitioned universe. *)
let witness_in eng db part f =
  if Formula.max_atom f >= Partition.universe_size part then
    invalid_arg "Ccwa: query atom outside the partition";
  Engine.augmented_witness eng db (Engine.negated_atoms eng db part) f

let infer_formula_in eng db part f =
  Option.is_none (witness_in eng db part (Formula.not_ f))

(* Only P-atoms are closed: ¬x for x ∈ P is one minimal-model query, other
   literals fall back to the augmented theory.  Atoms outside the universe
   are false by closure. *)
let infer_literal_in eng db part = function
  | Lit.Neg x when x >= Partition.universe_size part -> true
  | Lit.Neg x when Interp.mem (Partition.p part) x ->
    not (Engine.in_some_minimal eng db part x)
  | l ->
    Engine.augmented_entails eng db (Engine.negated_atoms eng db part)
      (Formula.of_lit l)

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

(* Packed at [part], by default ⟨V;∅;∅⟩.  MM(DB;P;Z) ⊆ CCWA(DB): CCWA is
   consistent iff DB is, and a positive DDB always is (the all-true
   interpretation is a model). *)
let semantics_in ?part ~name ~long_name eng =
  Semantics.parametric ?part ~name ~long_name
    ~applicable:(fun _ -> true)
    ~has_model:(fun db -> Db.is_positive_ddb db || Engine.sat eng db)
    ~infer_formula:(infer_formula_in eng) ~infer_literal:(infer_literal_in eng)
    ~witness:(witness_in eng) reference_models

let infer_formula db part f =
  infer_formula_in (Engine.create ~cache:false ~fastpath:false ()) db part f
