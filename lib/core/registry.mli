(** Name → semantics, the one way to ask one.  Every record is a constant
    {!Semantics.t}, wrapped once by [Fastpath.wrap]; the engine that
    answers is the first argument of each of its fields, so the registry
    keeps no engine, creates none, and hands out the records themselves.
    The partition-parametric ones appear with the total partition
    ⟨V;∅;∅⟩; {!find}[ ~part] makes them at any other ⟨P;Q;Z⟩. *)

val all : Semantics.t list
(** Every semantics, in registry order. *)

val find : ?part:Ddb_logic.Partition.t -> string -> Semantics.t option
(** The named semantics.  Ask it on any engine:
    [s.infer_literal eng db l].  A record keeps no state of its own (its
    memo tables and counters are the engine's), so two questions asked of
    it on one engine share that engine's memo.

    With [part], the [ccwa], [ecwa], [circ] or [icwa] record made at that
    ⟨P;Q;Z⟩ ([None] for every other name), afresh, by the same wrapper
    without fast-path routing.  The database is padded to [part]'s
    universe; a database wider than it, or a query atom outside it, raises
    [Invalid_argument]. *)

val find_in :
  ?part:Ddb_logic.Partition.t -> Ddb_engine.Engine.t -> string ->
  Semantics.t option
(** [find_in ?part eng name] is [find ?part name]; the engine is ignored.
    Kept only because perfbench's [core.registry_lookup_us] times it. *)

val names : string list

val applicable_names : Ddb_db.Db.t -> string list
(** Names of the semantics applicable to the database, in registry order. *)

(** {1 One-shot queries}

    Boolean evaluation by semantics name on a caller-supplied engine, with
    no budget token installed: the named record's field called on the
    engine.  A budgeted (three-valued) query wraps one
    of these:
    [Engine.budgeted eng limits ~sem (fun () -> infer_literal_in eng ~sem db l)].
    Every cell of the domain-parallel batch layer ([Ddb_parallel.Batch])
    runs that way on its worker's engine, and these are the sequential
    baseline its determinism tests compare against.  Unknown
    names raise [Invalid_argument]. *)

val infer_literal_in :
  Ddb_engine.Engine.t -> sem:string -> Ddb_db.Db.t -> Ddb_logic.Lit.t -> bool

val infer_formula_in :
  Ddb_engine.Engine.t -> sem:string -> Ddb_db.Db.t -> Ddb_logic.Formula.t -> bool

val has_model_in : Ddb_engine.Engine.t -> sem:string -> Ddb_db.Db.t -> bool
