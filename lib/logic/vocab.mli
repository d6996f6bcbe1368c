(** Interning table for propositional atoms.

    Atoms are referred to by dense integer ids [0 .. size-1] throughout the
    library; a vocabulary remembers the human-readable names. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty vocabulary. *)

val size : t -> int
(** Number of interned atoms; valid ids are [0 .. size-1]. *)

val intern : t -> string -> int
(** Id of the named atom, interning it if new.  Ids are append-only stable. *)

val find_opt : t -> string -> int option

val name : t -> int -> string
(** Name of an id.  @raise Invalid_argument if out of range. *)

val fresh : t -> string -> int
(** Intern a new atom named [base] or [base_k] for the least non-colliding
    [k].  Used by reductions that introduce new atoms. *)

val copy : t -> t
(** Independent copy (later interning in one does not affect the other). *)

val of_size : ?prefix:string -> int -> t
(** Vocabulary ["x0"], ..., ["x{n-1}"] (default prefix ["x"]). *)
