open Ddb_logic
open Ddb_db

(** PWS — Chan's Possible Worlds Semantics ≡ Sakama's Possible Models, for
    DDDBs.  Model checking is polynomial (M = lfp(P_M)); inference is a
    coNP-style counterexample search; without integrity clauses
    negative-literal inference is polynomial and existence is O(1). *)

val reference_models : Db.t -> Interp.t list

val semantics : Semantics.spec
(** The registry's [pws] record, its answers memoized
    ({!Semantics.via_engine}); ask it through {!Registry.find_in}. *)
