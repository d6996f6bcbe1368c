open Ddb_logic
open Ddb_db

(** CWA — Reiter's Closed World Assumption (the baseline the disjunctive
    semantics repair): add ¬x for every atom not classically entailed.
    Frequently inconsistent on disjunctive databases.

    Every decision procedure runs on a caller-supplied oracle engine; the
    closure set is memoized per theory on cached engines. *)

val reference_models : Db.t -> Interp.t list

val semantics : Semantics.spec
(** The registry's [cwa] record; ask it through {!Registry.find_in}. *)
