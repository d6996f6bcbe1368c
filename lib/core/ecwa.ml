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
   propositional case ECWA coincides with circumscription (Lifschitz), so
   the registry's "circ" record is this module's record too ({!Circ}),
   checked against the circumscription schema's models. *)

(* A (P;Z)-minimal model satisfying F: one Σ₂ᵖ guess-and-check search.
   The query must live inside the partitioned universe. *)
let witness_in eng db part f =
  if Formula.max_atom f >= Partition.universe_size part then
    invalid_arg "Ecwa: query atom outside the partition";
  Engine.minimal_witness ~part eng db f

let infer_formula_in eng db part f =
  Option.is_none (witness_in eng db part (Formula.not_ f))

(* A literal over P ∪ Q asks only what every (P;Z)-minimal model shares,
   so it reads the closed-world oracles GCWA/CCWA read:
     - ¬x with x ∈ P holds iff x is in no (P;Z)-minimal model, i.e. x is
       outside the support set (CCWA's ¬x op, memoized on cached engines);
     - any other literal over P ∪ Q holds in every minimal model iff it
       holds in every model of DB.  If M ⊨ DB falsifies l, a (P;Z)-minimal
       M' ≤ M exists, with M'∩P ⊆ M∩P and M'∩Q = M∩Q, so M' falsifies l
       too: a positive P-literal or a Q-literal keeps its falsity going
       down.  One memoized SAT call.
   Z atoms, and atoms outside the partition (which raise), take the
   witness search.  DESIGN.md §ECWA states this as the literal lemma. *)
let infer_literal_in eng db part l =
  let x = Lit.atom l in
  if x >= Partition.universe_size part || Interp.mem (Partition.z part) x then
    infer_formula_in eng db part (Formula.of_lit l)
  else
    match l with
    | Lit.Neg x when Interp.mem (Partition.p part) x ->
      not (Engine.in_some_minimal eng db part x)
    | _ ->
      Engine.augmented_entails eng db
        (Interp.empty (Db.num_vars db))
        (Formula.of_lit l)

let reference_models db part = Models.brute_minimal_models ~part db

(* Asked at [part], by default ⟨V;∅;∅⟩. *)
let semantics ?part ~name ~long_name () =
  Semantics.parametric ?part ~name ~long_name
    ~applicable:(fun _ -> true)
    ~has_model:(fun eng db -> Db.is_positive_ddb db || Engine.sat eng db)
    ~infer_formula:infer_formula_in ~infer_literal:infer_literal_in
    ~witness:witness_in reference_models
