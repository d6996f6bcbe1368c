open Ddb_logic
open Ddb_db

(* PERF — Przymusinski's Perfect Model Semantics for DNDBs.

   The priority relation and the one-SAT-call perfectness check live in
   {!Ddb_db.Priority}.  Perfect models are minimal models (any proper
   submodel is vacuously preferable), so the Π₂ᵖ-style engines below walk
   the minimal models lazily and screen each with the perfectness check:
     - inference: hunt for a perfect model violating the query;
     - existence: hunt for any perfect model (for a stratified database the
       unique perfect model exists, matching the paper's consistency
       discussion; for unstratified ones there may be none). *)

(* Some perfect model satisfying [query] (any perfect model without it). *)
let find_perfect_such_that ?query db =
  let n = Db.num_vars db in
  let priority = Priority.compute db in
  let theory = Db.theory db in
  let check_solver = Ddb_sat.Minimal.solver_of theory in
  Ddb_sat.Minimal.find_minimal_such_that
    ~extra:(Models.guard ~universe:n query)
    ~check:(fun m ->
      Option.is_none
        (Priority.find_preferable ~solver:check_solver db priority m))
    theory (Partition.minimize_all n)

let witness db f = find_perfect_such_that ~query:f (Semantics.for_query db f)
let infer_formula db f = Option.is_none (witness db (Formula.not_ f))

let infer_literal db l = infer_formula db (Formula.of_lit l)

(* A positive DDB's perfect models are its (nonempty) minimal models. *)
let has_model db =
  Db.is_positive_ddb db || Option.is_some (find_perfect_such_that db)

let reference_models db = Priority.brute_perfect_models db

(* Engine routing: answers memoized per semantics. *)
let semantics_in eng =
  Semantics.via_engine eng
    {
      name = "perf";
      long_name = "Perfect Model Semantics (Przymusinski)";
      applicable = (fun _ -> true);
      has_model;
      infer_formula;
      infer_literal;
      witness = (fun db f -> Semantics.two_valued (witness db f));
      reference_models;
    }
