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

(** {1 Batch entry points}

    One-shot evaluation by semantics name on a caller-supplied engine —
    what the domain-parallel batch layer ([Ddb_parallel.Batch]) runs on its
    per-worker engine shards, and the sequential baseline its determinism
    tests compare against.  Unknown names raise [Invalid_argument]. *)

val infer_literal_in :
  Ddb_engine.Engine.t -> sem:string -> Ddb_db.Db.t -> Ddb_logic.Lit.t -> bool

val infer_formula_in :
  Ddb_engine.Engine.t -> sem:string -> Ddb_db.Db.t -> Ddb_logic.Formula.t -> bool

val has_model_in : Ddb_engine.Engine.t -> sem:string -> Ddb_db.Db.t -> bool

(** {2 Budgeted (three-valued) variants}

    Same queries, run under a fresh {!Ddb_budget.Budget} token minted from
    [limits]: the answer is [True]/[False], or [Unknown reason] when the
    budget trips (see {!Ddb_engine.Engine.budgeted} for [retry] — the
    escalate-once ladder, off by default — and [group] cancellation). *)

val infer_literal3_in :
  ?retry:bool ->
  ?group:Ddb_budget.Budget.group ->
  Ddb_engine.Engine.t ->
  limits:Ddb_budget.Budget.limits ->
  sem:string ->
  Ddb_db.Db.t ->
  Ddb_logic.Lit.t ->
  Ddb_engine.Engine.answer

val infer_formula3_in :
  ?retry:bool ->
  ?group:Ddb_budget.Budget.group ->
  Ddb_engine.Engine.t ->
  limits:Ddb_budget.Budget.limits ->
  sem:string ->
  Ddb_db.Db.t ->
  Ddb_logic.Formula.t ->
  Ddb_engine.Engine.answer

val has_model3_in :
  ?retry:bool ->
  ?group:Ddb_budget.Budget.group ->
  Ddb_engine.Engine.t ->
  limits:Ddb_budget.Budget.limits ->
  sem:string ->
  Ddb_db.Db.t ->
  Ddb_engine.Engine.answer
