open Ddb_logic
open Ddb_qbf

(* Provably hard instance families: random ∃∀ 2-QBFs and their images under
   the paper's reductions.  These exercise exactly the cells whose hardness
   the paper proves (Π₂ᵖ literal inference, Σ₂ᵖ stable-model existence). *)

(* Random ∃X∀Y matrix in DNF shape, the natural form for ∀-hardness: the
   QBF asks whether some X-assignment makes the DNF a Y-tautology.  Every
   term is one X-literal and two distinct Y-literals (one when |Y| = 1).
   A term without a Y-literal would let the ∃ player satisfy the DNF
   outright, so the instance would be trivially valid: the dual of the
   all-universal clause that Gent & Walsh (1999) and Chen & Interian
   (2005) exclude from random CNF 2-QBFs.  With 2·|Y| + 4 terms, 92–115
   of seeds 0–199 are valid at each k = 2…8 (k + k variables). *)
let random_ef ~seed ~xs ~ys =
  if xs < 1 || ys < 1 then invalid_arg "Qbf_family.random_ef";
  let rng = Rng.create seed in
  let num_vars = xs + ys in
  let block1 = List.init xs Fun.id in
  let block2 = List.init ys (fun i -> xs + i) in
  let lit v = if Rng.bool rng then Formula.Atom v else Formula.Not (Formula.Atom v) in
  (* Each draw is its own [let]: OCaml leaves the order of evaluation
     inside a tuple, list or [let ... and] unspecified. *)
  let term _ =
    let x = lit (Rng.int rng xs) in
    let y1 = Rng.int rng ys in
    let l1 = lit (xs + y1) in
    if ys = 1 then Formula.And (x, l1)
    else
      let y2 = (y1 + 1 + Rng.int rng (ys - 1)) mod ys in
      let l2 = lit (xs + y2) in
      Formula.big_and [ x; l1; l2 ]
  in
  let matrix = Formula.big_or (List.init ((2 * ys) + 4) term) in
  Qbf.make ~prefix:Qbf.Exists_forall ~num_vars ~block1 ~block2 ~matrix

(* Positive DDB whose GCWA-literal answer encodes the QBF (Table 1's
   Π₂ᵖ-hard literal-inference family).  Returns the database and the witness
   atom w: GCWA(DB) ⊨ ¬w iff the QBF is invalid. *)
let gcwa_hard ~seed ~xs ~ys =
  let qbf = random_ef ~seed ~xs ~ys in
  Ddb_core.Reductions.qbf_to_gcwa qbf

(* DNDB whose stable-model existence encodes the QBF (Table 2's Σ₂ᵖ-hard
   existence family). *)
let dsm_hard ~seed ~xs ~ys =
  let qbf = random_ef ~seed ~xs ~ys in
  Ddb_core.Reductions.qbf_to_dsm_exists qbf
