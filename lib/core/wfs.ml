open Ddb_logic
open Ddb_sat
open Ddb_db

(* WFS — the Well-Founded Semantics of van Gelder, Ross & Schlipf for
   normal (non-disjunctive) programs: the semantics PDSM extends to
   disjunctive databases (the paper cites it as [29]).

   Computed by the alternating fixpoint: with

     Γ(I) = least model of the Gelfond–Lifschitz reduct P^I,

   Γ is antitone, Γ∘Γ is monotone; the well-founded interpretation is

     true  atoms:  W⁺ = lfp(Γ∘Γ)
     false atoms:  V ∖ Γ(W⁺)
     undefined:    Γ(W⁺) ∖ W⁺

   Everything is Horn evaluation — polynomial, zero oracle calls: the
   tractable non-disjunctive baseline the paper's disjunctive complexity
   jumps are measured against.

   Facts used by the tests:
     - WFS is a partial stable model, and the knowledge-least one;
     - if WFS is total, its true-set is the unique stable model;
     - on stratified normal programs WFS is total and coincides with the
       perfect model. *)

let check db =
  if not (Db.is_normal_program db) then
    invalid_arg "Wfs: the well-founded semantics needs a normal program \
                 (at most one head atom per clause)";
  if Db.has_integrity db then
    invalid_arg "Wfs: integrity clauses are not part of the WFS fragment"

(* Γ(I): least model of the reduct by the 2-valued set I. *)
let gamma db i =
  let rules =
    List.filter_map
      (fun c ->
        if List.exists (Interp.mem i) (Clause.body_neg c) then None
        else
          match Clause.head c with
          | [ h ] -> Some (Horn.rule ~head:h ~body:(Clause.body_pos c))
          | [] | _ :: _ :: _ ->
            invalid_arg "Wfs.gamma: not a constraint-free normal program")
      (Db.clauses db)
  in
  Horn.least_model ~num_vars:(Db.num_vars db) rules

type t = Three_valued.t

let compute db =
  check db;
  let n = Db.num_vars db in
  (* lfp of Γ² from ∅; monotone, so at most n iterations. *)
  let rec fix w =
    let w' = gamma db (gamma db w) in
    if Interp.equal w' w then w else fix w'
  in
  let w_true = fix (Interp.empty n) in
  let possible = gamma db w_true in
  Three_valued.make ~tru:w_true ~und:(Interp.diff possible w_true)

let is_total db = Three_valued.is_total (compute db)

(* WFS inference: the Kleene value of the query must be 1. *)
let infer_formula db f =
  let db = Semantics.for_query db f in
  Three_valued.eval_formula (compute db) f = Three_valued.T

(* Knowledge ordering on 3-valued interpretations: I ≤k J iff I's true and
   false sets are both contained in J's. *)
let knowledge_le i j =
  Interp.subset (Three_valued.tru i) (Three_valued.tru j)
  && Interp.subset (Three_valued.fls i) (Three_valued.fls j)
