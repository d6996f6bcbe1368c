open Ddb_logic
open Ddb_db

(* DSM — Przymusinski's Disjunctive Stable Model semantics, generalizing
   Gelfond–Lifschitz stable models to disjunctive heads:

     DSM(DB) = { M : M ∈ MM(DB^M) }

   where DB^M is the Gelfond–Lifschitz reduct.  Facts used:
     - DSM(DB) ⊆ MM(DB) — so the engines enumerate minimal models of DB and
       screen each with the stability check;
     - the stability check is: M ⊨ DB^M and M is a ⊆-minimal model of DB^M
       (one SAT call after a polynomial reduct computation);
     - on positive databases DB^M = DB, hence DSM(DB) = MM(DB): Table 1's
       DSM row collapses onto EGCWA. *)

let is_stable db m =
  let reduct = Reduct.gl db m in
  Db.satisfied_by m reduct
  && Ddb_sat.Minimal.is_minimal (Db.theory reduct)
       (Partition.minimize_all (Db.num_vars db))
       m

exception Found of Interp.t

(* A stable model satisfying [query]: walk the minimal models satisfying
   it, screen each with the stability check. *)
let find_stable_such_that ?query db =
  let extra, pred = Models.guard ~universe:(Db.num_vars db) query in
  try
    Ddb_sat.Minimal.iter_minimal ~extra (Db.theory db) (fun m ->
        if pred m && is_stable db m then raise (Found m) else `Continue);
    None
  with Found m -> Some m

let witness db f = find_stable_such_that ~query:f (Semantics.for_query db f)
let infer_formula db f = Option.is_none (witness db (Formula.not_ f))

let infer_literal db l = infer_formula db (Formula.of_lit l)

let has_model db =
  if Db.is_positive_ddb db then true (* DSM = MM, and MM(DB) ≠ ∅ *)
  else Option.is_some (find_stable_such_that db)

let stable_models ?limit ?truncated db =
  let acc = ref [] in
  let count = ref 0 in
  Ddb_sat.Minimal.iter_minimal (Db.theory db) (fun m ->
      if is_stable db m then begin
        acc := m :: !acc;
        incr count
      end;
      match limit with
      | Some k when !count >= k ->
        Option.iter (fun r -> r := true) truncated;
        `Stop
      | _ -> `Continue);
  List.rev !acc

let reference_models db =
  List.filter (fun m -> is_stable db m) (Models.brute_models db)

let semantics : Semantics.t =
  {
    name = "dsm";
    long_name = "Disjunctive Stable Models (Przymusinski)";
    applicable = (fun _ -> true);
    has_model;
    infer_formula;
    infer_literal;
    witness = (fun db f -> Semantics.two_valued (witness db f));
    reference_models;
  }

(* Engine routing: answers memoized and instrumented per semantics. *)
let semantics_in eng = Semantics.via_engine eng semantics
