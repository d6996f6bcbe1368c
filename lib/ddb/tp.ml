open Ddb_logic
open Ddb_sat

(* The consequence operator T_DB of the Disjunctive Database Rule (Ross &
   Topor), operating on *states*: sets of positive disjunctions.

   For a DDDB (no negation), each round hyperresolves every clause
   a1 v ... v an <- b1 ^ ... ^ bk against disjunctions C1 ∋ b1, ..., Ck ∋ bk
   already in the state, producing  head ∪ (C1 - b1) ∪ ... ∪ (Ck - bk).
   T↑ω is the least fixpoint from the empty state.  Integrity clauses are
   ignored by T — the paper's Example 3.1 shows exactly this blindness.

   DDR adds ¬x for every atom x that occurs in *no* disjunction of T↑ω.
   The membership-relevant information — which atoms occur — is computable
   in polynomial time by the occurrence closure below; this is what makes
   DDR/WGCWA literal inference tractable on databases without integrity
   clauses (Chan).  The explicit fixpoint is exponential in the worst case
   and serves as the reference implementation. *)

let check_positive db =
  if Db.has_negation db then
    invalid_arg "Tp: the DDR operator is defined for DDDBs (no negation)"

(* Polynomial occurrence closure: atom x occurs in T↑ω iff x is in the
   least model of the split program P_V = {h <- body(c) : h ∈ head(c)}
   (every fired clause marks all its head atoms).  A derivation witnesses
   membership and vice versa; the test suite compares this against the
   explicit fixpoint below. *)
let occurrence_closure db =
  check_positive db;
  let n = Db.num_vars db in
  Horn.least_model ~num_vars:n (Possible.projected_program db (Interp.full n))

(* Explicit state fixpoint.  Disjunctions are atom bitsets.  No subsumption
   is applied: DDR's occurrence test is over all derivable disjunctions
   (subsumption would lose occurrences — e.g. from {a., a v b.} the
   disjunction a v b is derivable even though a subsumes it).
   [max_states] guards against blowup. *)
let fixpoint ?(max_states = 100_000) db =
  check_positive db;
  let n = Db.num_vars db in
  let rules =
    List.filter_map
      (fun c ->
        match Clause.head c with
        | [] -> None
        | head -> Some (Interp.of_list n head, Clause.body_pos c))
      (Db.clauses db)
  in
  let state = ref Interp.Set.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (head, body) ->
        (* All ways to support the body from the current state. *)
        let supports =
          List.fold_left
            (fun partials b ->
              let with_b =
                Interp.Set.fold
                  (fun c acc ->
                    if Interp.mem c b then
                      List.concat_map
                        (fun partial -> [ Interp.union partial (Interp.remove c b) ])
                        partials
                      @ acc
                    else acc)
                  !state []
              in
              with_b)
            [ Interp.empty n ] body
        in
        List.iter
          (fun residue ->
            let derived = Interp.union head residue in
            if not (Interp.Set.mem derived !state) then begin
              if Interp.Set.cardinal !state >= max_states then
                failwith "Tp.fixpoint: state blowup (raise max_states?)";
              state := Interp.Set.add derived !state;
              changed := true
            end)
          supports)
      rules
  done;
  !state

let occurring_in_fixpoint db =
  let state = fixpoint db in
  Interp.Set.fold Interp.union state (Interp.empty (Db.num_vars db))

(* Minimal derivable disjunctions (subsumption-reduced fixpoint): the
   "canonical" state — these are exactly the minimal positive clauses
   entailed by a consistent DDDB (Minker's characterization).  Used by the
   EGCWA view and by tests. *)
let minimal_state db =
  let state = fixpoint db in
  Interp.Set.filter
    (fun c ->
      not
        (Interp.Set.exists
           (fun c' -> Interp.proper_subset c' c)
           state))
    state
