(** Name → packed semantics (partition-parametric ones appear with the
    total partition ⟨V;∅;∅⟩). *)

val all_in : Ddb_engine.Engine.t -> Semantics.t list
(** Every semantics routed through the given oracle engine, in registry
    order. *)

val find : string -> Semantics.t option
(** The named semantics on a fresh engine created with [~cache:false
    ~fastpath:false] — the paper's algorithms as stated, one fresh solver
    per oracle question.  Each call builds its own engine. *)

val find_in : Ddb_engine.Engine.t -> string -> Semantics.t option
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
