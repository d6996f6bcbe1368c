open Ddb_db

(* DSM — Przymusinski's Disjunctive Stable Model semantics, generalizing
   Gelfond–Lifschitz stable models to disjunctive heads:

     DSM(DB) = { M : M ∈ MM(DB^M) }

   where DB^M is the Gelfond–Lifschitz reduct.  Facts used:
     - DSM(DB) ⊆ MM(DB) — so the record is {!Semantics.screened}: the
       minimal models of DB, screened by the stability check;
     - the stability check is: M ⊨ DB^M and M is a ⊆-minimal model of DB^M
       (one SAT call after a polynomial reduct computation);
     - on positive databases DB^M = DB, hence DSM(DB) = MM(DB): Table 1's
       DSM row collapses onto EGCWA. *)

let is_stable db m =
  let reduct = Reduct.gl db m in
  Db.satisfied_by m reduct
  && Ddb_sat.Minimal.is_minimal (Db.theory reduct)
       (Ddb_logic.Partition.minimize_all (Db.num_vars db))
       m

let stable_models db = List.filter (is_stable db) (Models.minimal_models db)

let reference_models db = List.filter (is_stable db) (Models.brute_models db)

let semantics =
  Semantics.screened ~name:"dsm"
    ~long_name:"Disjunctive Stable Models (Przymusinski)"
    ~check:(fun _ db m ->
      if is_stable db m then Ddb_sat.Minimal.Pass else Ddb_sat.Minimal.Fail)
    reference_models
