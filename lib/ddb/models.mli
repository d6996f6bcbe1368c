open Ddb_logic

(** Model-theoretic primitives: M(DB), MM(DB), MM(DB;P;Z), classical and
    minimal-model entailment.  SAT-backed engines plus brute-force
    references for small universes. *)

val is_model : Db.t -> Interp.t -> bool
val has_model : Db.t -> bool
val some_model : Db.t -> Interp.t option
val all_models : ?limit:int -> ?truncated:bool ref -> Db.t -> Interp.t list
val minimal_models : ?limit:int -> ?truncated:bool ref -> Db.t -> Interp.t list
(** When [limit] cuts an enumeration short, [truncated] (if given) is set
    to [true] — truncation used to be silent. *)

val is_minimal_model : ?part:Partition.t -> Db.t -> Interp.t -> bool
val some_minimal_model : ?part:Partition.t -> Db.t -> Interp.t option

val minimal_section_models :
  ?limit:int -> ?truncated:bool ref -> Db.t -> Partition.t -> Interp.t list
(** One representative (P;Z)-minimal model per (P,Q)-section. *)

val guard :
  universe:int -> Formula.t option -> Lit.t list list * (Interp.t -> bool)
(** [guard ~universe (Some f)]: the Tseitin clauses asserting [f] (auxiliary
    variables numbered from [universe]) and the check [Formula.eval m f] on
    a candidate model — the one "model satisfies F" restriction every
    guess-and-check search uses.  [None] restricts nothing. *)

val minimal_witness :
  ?part:Partition.t -> Db.t -> Formula.t -> Interp.t option
(** A (P;Z)-minimal model satisfying F (default: total partition), by
    guess-and-check; the universe is padded to cover F. *)

val minimal_entails : ?part:Partition.t -> Db.t -> Formula.t -> bool
(** MM(DB;P;Z) ⊨ F: [minimal_witness] finds no model of ¬F. *)

val entails : Db.t -> Formula.t -> bool
(** Classical DB ⊨ F: one SAT call. *)

val brute_models : Db.t -> Interp.t list
val brute_minimal_models : ?part:Partition.t -> Db.t -> Interp.t list
