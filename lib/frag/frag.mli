open Ddb_logic
open Ddb_db

(** Syntactic fragment classification and the polynomial algorithms behind
    the P cells of the paper's Tables 1 and 2.

    The classifier is pure syntax (one pass over the clauses plus a
    Bellman–Ford stratification check); the engine caches
    one classification per hash-consed theory.  The algorithms below are
    the dedicated polynomial procedures the fast-path dispatch layer
    ([Ddb_core.Fastpath]) routes to when a (semantics, problem, fragment)
    triple lands in a tractable cell. *)

type t = {
  positive : bool;  (** no negative body literals anywhere (a DDDB) *)
  definite : bool;
      (** positive, and every non-integrity clause has exactly one head
          atom — a definite Horn database (integrity clauses allowed) *)
  normal : bool;  (** at most one head atom per clause *)
  stratified : bool;  (** no recursion through negation *)
  no_integrity : bool;  (** no empty-headed clauses *)
}

val classify : Db.t -> t

val names : t -> string list
(** The detected fragments as short lowercase tags, for CLI display. *)

val pp : Format.formatter -> t -> unit
val to_json : t -> string

(** {1 Polynomial algorithms} *)

val least_model : Db.t -> Interp.t
(** Least model of the definite rules (integrity clauses ignored), by the
    linear counter algorithm.
    @raise Invalid_argument unless the database is definite. *)

val constraints : Db.t -> int list list
(** Positive bodies of the integrity clauses (the inputs of
    {!Ddb_sat.Horn.integrity_ok}). *)

val consistent_definite : Db.t -> bool
(** A definite database is consistent iff its least model violates no
    integrity clause. *)

val iterated_model : Db.t -> Interp.t
(** The iterated least model (Apt–Blair–Walker) — the unique perfect model
    of a stratified normal database without integrity clauses.  Clauses
    with empty or disjunctive heads are ignored.
    @raise Invalid_argument when the database is not stratified. *)

val derivable : Db.t -> Interp.t
(** Atoms occurring in the DDR state fixpoint T↑ω, by a linear queue-based
    relevancy-graph closure — same set as {!Ddb_db.Tp.occurrence_closure},
    without the quadratic re-scan.
    @raise Invalid_argument when the database contains negation. *)

(** {1 Cached per-theory bundle} *)

type info = {
  frag : t;
  least : Interp.t Lazy.t;  (** definite databases only *)
  consistent : bool Lazy.t;  (** definite databases only *)
  perfect : Interp.t Lazy.t;
      (** stratified normal databases without integrity clauses only *)
  derivable : Interp.t Lazy.t;  (** positive databases only *)
}
(** Classification plus lazily computed canonical objects.  Each lazy field
    is only safe to force under its fragment gate; the engine memoizes one
    [info] per hash-consed theory so repeated queries share the closures. *)

val info : Db.t -> info
