open Ddb_logic
open Ddb_db

(** Model-based diagnosis of combinational circuits: minimizing abnormality
    atoms with floating wires makes the (P;Z)-minimal models exactly the
    minimal diagnoses (the classic ECWA/CCWA application). *)

type gate_kind = And | Or | Not | Xor

type gate = { kind : gate_kind; inputs : int list; output : int }

type circuit = { num_wires : int; gates : gate list }

type observation = { wire : int; value : bool }

val instance :
  circuit -> observations:observation list -> Db.t * Partition.t * Interp.t
(** The behaviour database, the diagnosis partition ⟨ab; observed; wires⟩,
    and the set of ab atoms. *)

val minimal_diagnoses :
  circuit -> observations:observation list -> Interp.t list
(** Minimal diagnoses as sets of ab atoms (one representative each). *)

val certainly_healthy :
  Ddb_engine.Engine.t -> circuit -> observations:observation list -> int -> bool
(** CCWA ⊨ ¬ab_g: the gate appears in no minimal diagnosis. *)

val ripple_adder :
  int -> circuit * int array * int array * int array * int array
(** [ripple_adder bits] = (circuit, a, b, carry, sum) wire indices. *)

val faulty_adder_observations :
  bits:int -> a_val:int -> b_val:int -> flip_bit:int ->
  circuit * observation list
(** Observations of a + b with one sum bit corrupted. *)
