open Ddb_logic
open Ddb_sat
open Ddb_db

(* PWS — Chan's Possible Worlds Semantics, via Sakama's equivalent Possible
   Models characterization (see {!Ddb_db.Possible} for the split-program
   definition and the polynomial model check M = lfp(P_M)).

   Problem profile:
     - possible-model checking is polynomial, so formula inference is a
       coNP-style counterexample search: enumerate models of DB ∧ ¬F,
       accept the first that passes the possible-model check;
     - without integrity clauses, negative-literal inference is polynomial:
       PWS(DB) ⊨ ¬x iff x ∉ occ(T↑ω) — the occurrence closure is itself a
       possible model (select head ∩ occ for fired clauses), and every
       possible model sits inside derivable atoms;
     - without integrity clauses a possible model always exists (O(1)
       existence); with them, existence is an NP-style search. *)

let check db =
  if Db.has_negation db then
    invalid_arg "Pws: possible models are defined for DDDBs (no negation)"

(* Witness search: a possible model satisfying [query] (for inference, a
   counterexample satisfying ¬F); exact-model blocking keeps the loop
   complete. *)
let find_possible_such_that ?query db =
  check db;
  let n = Db.num_vars db in
  let extra, pred = Models.guard ~universe:n query in
  let solver = Db.solver db in
  List.iter (Solver.add_clause solver) extra;
  let found = ref None in
  Enum.iter ~universe:n solver (fun m ->
      if pred m && Possible.is_possible_model db m then begin
        found := Some m;
        `Stop
      end
      else `Continue);
  !found

let entails_neg_literal_poly db x =
  check db;
  if Db.has_integrity db then
    invalid_arg "Pws.entails_neg_literal_poly: integrity clauses present";
  x >= Db.num_vars db || not (Interp.mem (Tp.occurrence_closure db) x)

let witness db f = find_possible_such_that ~query:f (Semantics.for_query db f)
let infer_formula db f = Option.is_none (witness db (Formula.not_ f))

let infer_literal db l =
  match l with
  | Lit.Neg x when not (Db.has_integrity db) -> entails_neg_literal_poly db x
  | Lit.Neg _ | Lit.Pos _ -> infer_formula db (Formula.of_lit l)

let has_model db =
  check db;
  if not (Db.has_integrity db) then true
  else Option.is_some (find_possible_such_that db)

let reference_models db = Possible.brute_possible_models db

let semantics : Semantics.t =
  {
    name = "pws";
    long_name = "Possible Worlds Semantics (Chan) = Possible Models (Sakama)";
    applicable = (fun db -> not (Db.has_negation db));
    has_model;
    infer_formula;
    infer_literal;
    witness = (fun db f -> Semantics.two_valued (witness db f));
    reference_models;
  }

(* Engine routing: answers memoized and instrumented per semantics. *)
let semantics_in eng = Semantics.via_engine eng semantics
