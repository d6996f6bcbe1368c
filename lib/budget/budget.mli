(** Resource budgets, cooperative cancellation and graceful degradation.

    The paper places inference under the ten semantics as high as
    Π₂ᵖ/Σ₂ᵖ, and the worst-case blowup is intrinsic — so a long-running
    service must be able to {e bound} an oracle call, not just hope it
    returns.  This module is the robustness subsystem the whole oracle
    stack threads through:

    - a {!t} token carries resource caps (conflicts, propagations, a
      logical-tick deadline, a wall deadline, an enumeration cap) plus a
      cross-domain cancellation flag;
    - the token is installed domain-locally with {!with_token}; the SAT
      solver's conflict loop, the CEGAR round boundary and the model
      enumerators call the probe functions ({!charge}, {!on_solve},
      {!check}, {!on_model}, {!on_oracle_op}), which raise
      {!Out_of_budget} when a cap trips — with no token installed every
      probe is one domain-local read;
    - a tripped computation degrades to the three-valued {!answer}
      [Unknown reason] instead of a wrong definite answer: the exception
      unwinds before any result is produced, so memo tables only ever see
      definite answers;
    - {!Fault} injects deterministic failures at the k-th oracle
      operation, so the degradation paths themselves are testable.

    Determinism: with only {e logical} caps (conflicts, propagations,
    ticks, models) the trip point is a pure function of the computation,
    so which queries degrade is reproducible run-to-run and across
    worker-domain placements (for context-free, cache-disabled oracle
    paths).  Wall deadlines ([wall_ms]) are excluded from any determinism
    claim. *)

type reason =
  | Budget_exhausted  (** a resource cap (or wall deadline) tripped *)
  | Cancelled  (** the token (or its group) was cancelled *)
  | Injected_fault  (** a {!Fault} fired (tests only) *)

val string_of_reason : reason -> string
val pp_reason : Format.formatter -> reason -> unit

exception Out_of_budget of reason
(** Raised by the probe functions; unwinds to the nearest {!eval} /
    [Engine.budgeted] wrapper, which turns it into [Unknown]. *)

(** {1 Three-valued answers} *)

type answer = True | False | Unknown of reason

val of_bool : bool -> answer
val to_bool_opt : answer -> bool option
(** [None] on [Unknown]. *)

val answer_equal : answer -> answer -> bool
val string_of_answer : answer -> string
val pp_answer : Format.formatter -> answer -> unit

(** {1 Limits (immutable specs)} *)

type limits = {
  conflicts : int option;  (** SAT conflict cap, summed over solves *)
  propagations : int option;  (** unit-propagation cap *)
  ticks : int option;
      (** logical deadline: every conflict, solve call, CEGAR round and
          engine oracle op consumes one tick — deterministic *)
  wall_ms : float option;
      (** wall deadline in ms, measured from token mint (per-task) *)
  models : int option;  (** enumeration cap (models reported) *)
}

val no_limits : limits

val limits :
  ?conflicts:int ->
  ?propagations:int ->
  ?ticks:int ->
  ?wall_ms:float ->
  ?models:int ->
  unit ->
  limits

val is_unlimited : limits -> bool

val escalate : ?factor:int -> limits -> limits
(** The next rung of the retry ladder: every finite cap multiplied by
    [factor] (default 4). *)

(** {1 Cancellation groups}

    A group is a shared flag that cancels every member token at once —
    the pool's cancel-remaining-on-first-error mode. *)

type group

val group : unit -> group
val cancel_group : group -> unit
val group_cancelled : group -> bool

(** {1 Tokens} *)

type t

val token : ?group:group -> limits -> t
(** Mint a fresh token.  Wall deadlines start counting here. *)

val unlimited : unit -> t

val cancel : t -> unit
(** Cross-domain safe: the target trips [Cancelled] at its next probe. *)

val tripped : t -> reason option
(** Why the token tripped, if it did (sticky: a tripped token re-raises at
    every subsequent probe). *)

val with_token : t -> (unit -> 'a) -> 'a
(** Install the token domain-locally for the thunk (restoring the previous
    one on exit, exception-safe).  Budget probes only act while a token is
    installed. *)

val active : unit -> bool
val current : unit -> t option

val run :
  ?group:group ->
  ?retry:bool ->
  ?on_trip:(retrying:bool -> reason -> unit) ->
  limits ->
  (unit -> 'a) ->
  ('a, reason) result
(** Mint a token, run the thunk under it, and return its result, or
    [Error r] if {!Out_of_budget}[ r] unwound.  Other exceptions pass
    through.  This is the one retry ladder: with [retry:true] (default
    [false]) an attempt that tripped [Budget_exhausted] under finite
    limits runs once more under {!escalate}[ limits] (every cap x4).
    Cancelled and fault-injected attempts are never retried, nor is an
    unlimited budget.  [on_trip] sees every tripped attempt, with
    [retrying] telling whether the escalated attempt follows. *)

val eval : ?group:group -> limits -> (unit -> bool) -> answer
(** {!run} without retry, degraded to a three-valued answer: [of_bool] of
    the result, or [Unknown r]. *)

(** {1 Probe sites}

    All are no-ops (one domain-local read) when no token is installed and
    no fault is armed. *)

val charge : ?conflicts:int -> ?propagations:int -> unit -> unit
(** The SAT solver's conflict site: consume conflicts/propagations (each
    conflict is also one tick) and check every cap. *)

val on_solve : unit -> unit
(** Solve-call entry: one tick. *)

val check : unit -> unit
(** Generic loop boundary (CEGAR rounds, enumeration loops): one tick. *)

val on_model : unit -> unit
(** One enumerated model: checks the enumeration cap. *)

val on_oracle_op : unit -> unit
(** Engine oracle-op entry: one tick, plus the {!Fault} countdown. *)

val exhausted_total : unit -> int
(** Process-wide count of budget trips (all reasons) since start — the
    bench harness reports this in its JSON meta. *)

(** {1 Fault injection}

    Deterministic, domain-local: [arm ~after:k] makes the [(k+1)]-th
    subsequent {!on_oracle_op} on this domain fail, then disarms.  Tests
    seed-sweep [k] to exercise every degradation path. *)

module Fault : sig
  type kind =
    | Unknown_answer  (** raise [Out_of_budget Injected_fault] *)
    | Solver_failure  (** raise {!Simulated_solver_failure} *)

  exception Simulated_solver_failure

  val arm : ?kind:kind -> after:int -> unit -> unit
  (** [kind] defaults to [Unknown_answer].  @raise Invalid_argument on
      negative [after]. *)

  val disarm : unit -> unit
  val armed : unit -> bool

  val pending : unit -> int option
  (** Ops left before the fault fires, if armed. *)
end
