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

(* Public entry points scope themselves ("ecwa" bucket). *)
let scope eng f = Engine.scoped eng "ecwa" f

(* A (P;Z)-minimal model satisfying F: one Σ₂ᵖ guess-and-check search.
   The query must live inside the partitioned universe. *)
let witness_in eng db part f =
  if Formula.max_atom f >= Partition.universe_size part then
    invalid_arg "Ecwa: query atom outside the partition";
  scope eng (fun () -> Engine.minimal_witness ~part eng db f)

let infer_formula_in eng db part f =
  Option.is_none (witness_in eng db part (Formula.not_ f))

let infer_literal_in eng db part l =
  infer_formula_in eng db part (Formula.of_lit l)

let reference_models db part = Models.brute_minimal_models ~part db

(* Packed at ⟨V;∅;∅⟩, every field in the record's own scope except the
   O(1) existence answer, which does no oracle work. *)
let semantics_in ~name ~long_name eng : Semantics.t =
  let scoped f = Engine.scoped eng name f in
  let packed formula_of k db q =
    scoped (fun () -> Semantics.at_total formula_of (k eng) db q)
  in
  {
    name;
    long_name;
    applicable = (fun _ -> true);
    has_model =
      (fun db -> Db.is_positive_ddb db || scoped (fun () -> Engine.sat eng db));
    infer_formula = packed Fun.id infer_formula_in;
    infer_literal = packed Formula.of_lit infer_literal_in;
    witness =
      (fun db f -> Semantics.two_valued (packed Fun.id witness_in db f));
    reference_models = (fun db -> Models.brute_minimal_models db);
  }
