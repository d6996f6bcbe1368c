open Ddb_logic
open Ddb_db
open Ddb_qbf

(* Direct 2-QBF encodings of the minimal-model queries — the "textbook"
   realization of the Σ₂ᵖ membership proofs, as opposed to the incremental
   SAT loops in Ddb_sat.Minimal.  Variables 0..n-1 hold the candidate model
   M, variables n..2n-1 a challenger N:

     ∃M ∀N .  DB(M) ∧ side(M) ∧ ( DB(N) ∧ N ≤ M  →  N = M )

   is valid iff some (⊆-)minimal model of DB satisfies the side condition.
   The test suite checks these against the CEGAR QBF solver *and* the
   minimal-model engine — three independently implemented routes to the
   same Σ₂ᵖ answers. *)

let candidate_var x = x
let challenger_var ~n x = n + x

let db_formula ~rename db =
  Formula.big_and
    (List.map
       (fun clause ->
         Formula.big_or
           (List.map
              (fun l ->
                match l with
                | Lit.Pos x -> Formula.Atom (rename x)
                | Lit.Neg x -> Formula.Not (Formula.Atom (rename x)))
              clause))
       (Db.to_cnf db))

let n_encode = Ddb_obs.Trace.name "qbf.encode"

(* ∃M ∀N.  DB(M) ∧ extra(M) ∧ (DB(N) ∧ N ⊆ M → N = M), built under a
   [qbf.encode] trace span: valid iff some ⊆-minimal model satisfies
   [extra] (which must live in the universe). *)
let exists_minimal_such_that db extra =
  Ddb_obs.Trace.with_span n_encode @@ fun () ->
  let n = Db.num_vars db in
  let m_side = db_formula ~rename:candidate_var db in
  let n_side = db_formula ~rename:(challenger_var ~n) db in
  let subset =
    Formula.big_and
      (List.init n (fun x ->
           Formula.Imp
             ( Formula.Atom (challenger_var ~n x),
               Formula.Atom (candidate_var x) )))
  in
  let equal =
    Formula.big_and
      (List.init n (fun x ->
           Formula.Iff
             ( Formula.Atom (challenger_var ~n x),
               Formula.Atom (candidate_var x) )))
  in
  let matrix =
    Formula.big_and
      [
        m_side;
        extra;
        Formula.Imp (Formula.And (n_side, subset), equal);
      ]
  in
  Qbf.make ~prefix:Qbf.Exists_forall ~num_vars:(2 * n)
    ~block1:(List.init n candidate_var)
    ~block2:(List.init n (challenger_var ~n))
    ~matrix

(* "Some minimal model contains x" — the GCWA ⊭ ¬x query as a QBF. *)
let some_minimal_model_with_atom db x =
  exists_minimal_such_that db (Formula.Atom x)

(* "Some minimal model violates F" — the complement of EGCWA ⊨ F. *)
let some_minimal_model_violating db f =
  exists_minimal_such_that db (Formula.not_ f)

(* Answers through the CEGAR solver (each call = one Σ₂ᵖ oracle query). *)
let gcwa_refutes_neg_literal_qbf db x =
  Cegar.valid (some_minimal_model_with_atom db x)

let egcwa_entails_qbf db f =
  let db = Semantics.for_query db f in
  not (Cegar.valid (some_minimal_model_violating db f))
