open Ddb_db

(* PERF — Przymusinski's Perfect Model Semantics for DNDBs.

   The priority relation and the one-SAT-call perfectness check live in
   {!Ddb_db.Priority}.  Perfect models are minimal models (any proper
   submodel is vacuously preferable), so the record is
   {!Semantics.screened}: the minimal models, walked lazily and screened
   by the perfectness check on a copy of the search's compiled theory.
   A failed check refutes more than its candidate: the preferable model
   N it found is preferable to no perfect model, so the search learns
   ¬(N ≺ M) ({!Ddb_db.Priority.not_preferable}) and never proposes a
   model N defeats.
   For a stratified database the unique perfect model exists, matching
   the paper's consistency discussion; an unstratified one may have
   none. *)

let reference_models db = Priority.brute_perfect_models db

let semantics =
  Semantics.screened ~name:"perf"
    ~long_name:"Perfect Model Semantics (Przymusinski)"
    ~check:(fun theory ->
      Priority.perfectness ~solver:(Ddb_sat.Minimal.solver_of theory))
    reference_models
