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

(* A stable model satisfying [query]: the minimal models satisfying it,
   screened by the stability check. *)
let find_stable_such_that ?query db =
  let n = Db.num_vars db in
  Ddb_sat.Minimal.find_minimal_such_that
    ~extra:(Models.guard ~universe:n query)
    ~check:(is_stable db)
    (Db.theory db) (Partition.minimize_all n)

let witness db f = find_stable_such_that ~query:f (Semantics.for_query db f)
let infer_formula db f = Option.is_none (witness db (Formula.not_ f))

let infer_literal db l = infer_formula db (Formula.of_lit l)

let has_model db =
  if Db.is_positive_ddb db then true (* DSM = MM, and MM(DB) ≠ ∅ *)
  else Option.is_some (find_stable_such_that db)

let stable_models db = List.filter (is_stable db) (Models.minimal_models db)

let reference_models db =
  List.filter (fun m -> is_stable db m) (Models.brute_models db)

(* The op DSM's harvested consequences are memoized under. *)
let intended = Ddb_engine.Engine.op "dsm/intended"

(* Engine routing: answers memoized per semantics. *)
let semantics =
  Semantics.via_engine
    {
      name = "dsm";
      long_name = "Disjunctive Stable Models (Przymusinski)";
      applicable = (fun _ -> true);
      has_model = Semantics.harvested_exists ~op:intended has_model;
      infer_formula = (fun _ db f -> infer_formula db f);
      infer_literal =
        Semantics.harvested_literal ~op:intended is_stable infer_literal;
      witness = (fun _ db f -> Semantics.two_valued (witness db f));
      reference_models;
    }
