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


(** {1 Polynomial algorithms} *)

val iterated_model : Db.t -> Interp.t
(** The iterated least model (Apt–Blair–Walker) — the unique perfect model
    of a stratified normal database without integrity clauses.  Clauses
    with empty or disjunctive heads are ignored.
    @raise Invalid_argument when the database is not stratified. *)

(** {1 Cached per-theory bundle} *)

type info = {
  frag : t;
  closure : Interp.t Lazy.t;
      (** {!Ddb_db.Tp.occurrence_closure}: the atoms occurring in the DDR
          fixpoint T↑ω, i.e. the least model of the split program
          [{h ← body(c) : h ∈ head(c)}].  On a definite database that
          program is the definite rules, so this is their least model.
          Positive databases only. *)
  consistent : bool Lazy.t;
      (** [closure] violates no integrity clause; on a definite database,
          whether it is consistent.  Positive databases only. *)
  perfect : Interp.t Lazy.t;
      (** stratified normal databases without integrity clauses only *)
}
(** Classification plus lazily computed canonical objects.  Each lazy field
    is only safe to force under its fragment gate; the engine memoizes one
    [info] per hash-consed theory so repeated queries share the closures. *)

val info : Db.t -> info
