(** Name → packed semantics, the one way to ask one.  The
    partition-parametric ones appear with the total partition ⟨V;∅;∅⟩;
    {!find_in}[ ~part] packs them at any other ⟨P;Q;Z⟩. *)

val all_in : Ddb_engine.Engine.t -> Semantics.t list
(** Every semantics routed through the given oracle engine, in registry
    order. *)

val find : string -> Semantics.t option
(** The named semantics on a fresh engine created with [~cache:false
    ~fastpath:false] — the paper's algorithms as stated, one fresh solver
    per oracle question.  Each call builds its own engine. *)

val find_in :
  ?part:Ddb_logic.Partition.t -> Ddb_engine.Engine.t -> string ->
  Semantics.t option
(** The named semantics routed through the given engine.  Each record is
    packed at most once per engine and per domain: later calls on the same
    engine return the same physical record, and {!all_in} returns those
    records too.  The memo holds the last engine asked (per domain); a
    query on another engine replaces it, and {!find} and
    {!applicable_names} never touch it.  A packed record keeps no state of
    its own (its memo tables and counters are the engine's), so sharing
    it cannot change an answer.

    With [part], the [ccwa], [ecwa], [circ] or [icwa] record packed at
    that ⟨P;Q;Z⟩ ([None] for every other name), afresh and outside the
    memo, by the same wrapper without fast-path routing.  The database is
    padded to [part]'s universe; a query atom outside it raises
    [Invalid_argument]. *)

val names : string list

val applicable_names : Ddb_db.Db.t -> string list
(** Names of the semantics applicable to the database, in registry order. *)

(** {1 One-shot queries}

    Boolean evaluation by semantics name on a caller-supplied engine, with
    no budget token installed.  A budgeted (three-valued) query wraps one
    of these:
    [Engine.budgeted eng limits ~sem (fun () -> infer_literal_in eng ~sem db l)].
    Every cell of the domain-parallel batch layer ([Ddb_parallel.Batch])
    runs that way on its per-worker engine shards, and these are the
    sequential baseline its determinism tests compare against.  Unknown
    names raise [Invalid_argument]. *)

val infer_literal_in :
  Ddb_engine.Engine.t -> sem:string -> Ddb_db.Db.t -> Ddb_logic.Lit.t -> bool

val infer_formula_in :
  Ddb_engine.Engine.t -> sem:string -> Ddb_db.Db.t -> Ddb_logic.Formula.t -> bool

val has_model_in : Ddb_engine.Engine.t -> sem:string -> Ddb_db.Db.t -> bool
