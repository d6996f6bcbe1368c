open Ddb_logic
open Ddb_db

(** Graph workloads: colourability (EGCWA existence with integrity clauses)
    and minimal vertex covers (minimal models of a positive DDB). *)

type graph = { vertices : int; edges : (int * int) list }

val random_graph : seed:int -> vertices:int -> edge_prob:float -> graph
val cycle : int -> graph

val coloring_db : ?colors:int -> graph -> Db.t
(** One disjunctive fact per vertex, [colors] integrity clauses per edge. *)

val is_colorable : ?colors:int -> graph -> bool

val vertex_cover_db : graph -> Db.t
(** Each edge (u,v) is the fact [in_u ∨ in_v]; minimal models = minimal
    vertex covers. *)

val minimal_vertex_covers :
  ?limit:int -> ?truncated:bool ref -> graph -> Interp.t list
(** A [limit]-cut enumeration sets [truncated] (if given) to [true]. *)

val never_in_minimal_cover : Ddb_engine.Engine.t -> graph -> int -> bool
(** GCWA(cover db) ⊨ ¬in_v. *)
