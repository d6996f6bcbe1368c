(** Name → semantics, the one way to ask one.  Every record is a constant
    {!Semantics.spec}, wrapped once by [Fastpath.wrap]; the engine that
    answers is an argument of each question, so the registry keeps no
    engine and no record per engine.  The partition-parametric ones
    appear with the total partition ⟨V;∅;∅⟩; {!find_in}[ ~part] makes them
    at any other ⟨P;Q;Z⟩. *)

val all_in : Ddb_engine.Engine.t -> Semantics.t list
(** Every semantics bound to the given oracle engine, in registry
    order. *)

val find : string -> Semantics.t option
(** The named semantics on a fresh engine created with [~cache:false
    ~fastpath:false] — the paper's algorithms as stated, one fresh solver
    per oracle question.  Each call builds its own engine. *)

val find_in :
  ?part:Ddb_logic.Partition.t -> Ddb_engine.Engine.t -> string ->
  Semantics.t option
(** The named semantics bound to the given engine ({!Semantics.bind}).  A
    record keeps no state of its own (its memo tables and counters are the
    engine's), so two records bound to one engine answer alike.

    With [part], the [ccwa], [ecwa], [circ] or [icwa] record made at that
    ⟨P;Q;Z⟩ ([None] for every other name), afresh, by the same wrapper
    without fast-path routing.  The database is padded to [part]'s
    universe; a database wider than it, or a query atom outside it, raises
    [Invalid_argument]. *)

val names : string list

val applicable_names : Ddb_db.Db.t -> string list
(** Names of the semantics applicable to the database, in registry order. *)

(** {1 One-shot queries}

    Boolean evaluation by semantics name on a caller-supplied engine, with
    no budget token installed: the named record's field called on the
    engine, with no record bound.  A budgeted (three-valued) query wraps one
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
