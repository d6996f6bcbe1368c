open Ddb_logic
open Ddb_db

(** Brave (credulous) inference: truth in {e some} intended model, with the
    witnessing model available.  Dual to the cautious engines; for every
    two-valued semantics, brave(F) = ¬cautious(¬F) (a tested property), so
    a brave witness of ¬F is a counterexample to cautious F.  The
    closed-world engines (CWA, GCWA, CCWA) take the oracle engine that
    computes their augmentation. *)

val cwa_witness : Ddb_engine.Engine.t -> Db.t -> Formula.t -> Interp.t option
val gcwa_witness : Ddb_engine.Engine.t -> Db.t -> Formula.t -> Interp.t option

val ccwa_witness :
  Ddb_engine.Engine.t -> Db.t -> Partition.t -> Formula.t -> Interp.t option

val egcwa_witness : Db.t -> Formula.t -> Interp.t option
val ecwa_witness : Db.t -> Partition.t -> Formula.t -> Interp.t option
val ddr_witness : Db.t -> Formula.t -> Interp.t option
val pws_witness : Db.t -> Formula.t -> Interp.t option
val icwa_witness : Db.t -> Partition.t -> Formula.t -> Interp.t option
val perf_witness : Db.t -> Formula.t -> Interp.t option
val dsm_witness : Db.t -> Formula.t -> Interp.t option
val pdsm_witness : Db.t -> Formula.t -> Three_valued.t option

val cwa : Ddb_engine.Engine.t -> Db.t -> Formula.t -> bool
val gcwa : Ddb_engine.Engine.t -> Db.t -> Formula.t -> bool
val ccwa : Ddb_engine.Engine.t -> Db.t -> Partition.t -> Formula.t -> bool
val egcwa : Db.t -> Formula.t -> bool
val ecwa : Db.t -> Partition.t -> Formula.t -> bool
val ddr : Db.t -> Formula.t -> bool
val pws : Db.t -> Formula.t -> bool
val icwa : Db.t -> Partition.t -> Formula.t -> bool
val perf : Db.t -> Formula.t -> bool
val dsm : Db.t -> Formula.t -> bool

val pdsm : Db.t -> Formula.t -> bool
(** Some partial stable model gives F the value 1. *)

type witness = Two_valued of Interp.t | Three_valued_witness of Three_valued.t

val witness_by_name :
  Ddb_engine.Engine.t -> string -> Db.t -> Formula.t -> witness option option
(** [None]: unknown semantics; [Some None]: no witness (brave answer is
    false); [Some (Some w)]: witness.  Partition-parametric semantics use
    the total partition. *)

val by_name : Ddb_engine.Engine.t -> string -> Db.t -> Formula.t -> bool option
