open Ddb_logic
open Ddb_db
open Ddb_engine

(* ECWA — the Extended CWA of Gelfond, Przymusinska & Przymusinski: for a
   partition ⟨P;Q;Z⟩ the meaning of DB is the set of (P;Z)-minimal models,

     ECWA_{P;Z}(DB) = MM(DB; P; Z).

   The EGCWA of Yahya & Henschen, EGCWA(DB) = MM(DB), is the special case
   Q = Z = ∅, and the registry's "egcwa" record is this module's record at
   ⟨V;∅;∅⟩.  Inference is truth in every (P;Z)-minimal model; model
   existence is plain consistency — and O(1) on positive DDBs without
   integrity clauses (the all-true interpretation is always a model and
   contains a minimal one), which is Table 1's O(1) cell.  In the finite
   propositional case ECWA coincides with circumscription (see {!Circ},
   implemented independently from the circumscription schema; the
   equivalence is a property test). *)

(* A (P;Z)-minimal model satisfying F: one Σ₂ᵖ guess-and-check search.
   The query must live inside the partitioned universe. *)
let witness_in eng db part f =
  if Formula.max_atom f >= Partition.universe_size part then
    invalid_arg "Ecwa: query atom outside the partition";
  Engine.minimal_witness ~part eng db f

let infer_formula_in eng db part f =
  Option.is_none (witness_in eng db part (Formula.not_ f))

let infer_literal_in eng db part l =
  infer_formula_in eng db part (Formula.of_lit l)

let reference_models db part = Models.brute_minimal_models ~part db

(* Packed at [part], by default ⟨V;∅;∅⟩. *)
let semantics_in ?part ~name ~long_name eng =
  Semantics.parametric ?part ~name ~long_name
    ~applicable:(fun _ -> true)
    ~has_model:(fun db -> Db.is_positive_ddb db || Engine.sat eng db)
    ~infer_formula:(infer_formula_in eng) ~infer_literal:(infer_literal_in eng)
    ~witness:(witness_in eng) reference_models
