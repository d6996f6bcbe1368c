(* Resource-budgeted, cancellable evaluation.

   A token is installed domain-locally (Domain.DLS, like the Stats
   counters) so the SAT solver's conflict loop, the CEGAR round boundary
   and the model enumerators can consult it without threading a parameter
   through every signature.  With no token installed — the default — every
   probe site costs one DLS read and two branch tests.

   Caps are cooperative: the computation is only interrupted at probe
   sites, all of which leave the underlying structures reusable (the
   solver re-enters through a level-0 backtrack; enumeration loops hold no
   hidden state).  A trip is sticky — once a token has tripped, every
   later probe under it re-raises with the same reason — so a computation
   that swallows one exception cannot silently run past its budget.

   Determinism: conflict/propagation/tick/model caps count events of the
   computation itself, so the trip point is a pure function of the work
   (placement- and scheduling-independent for context-free oracle paths).
   Wall deadlines sample Unix.gettimeofday and are explicitly excluded
   from determinism claims. *)

type reason = Budget_exhausted | Cancelled | Injected_fault

let string_of_reason = function
  | Budget_exhausted -> "budget_exhausted"
  | Cancelled -> "cancelled"
  | Injected_fault -> "injected_fault"

exception Out_of_budget of reason

(* --- three-valued answers --- *)

type answer = True | False | Unknown of reason

let of_bool b = if b then True else False
let answer_equal (a : answer) b = a = b

let string_of_answer = function
  | True -> "true"
  | False -> "false"
  | Unknown r -> "unknown(" ^ string_of_reason r ^ ")"

(* --- limits --- *)

type limits = {
  conflicts : int option;
  propagations : int option;
  ticks : int option;
  wall_ms : float option;
  models : int option;
}

let no_limits =
  { conflicts = None; propagations = None; ticks = None; wall_ms = None; models = None }

let limits ?conflicts ?propagations ?ticks ?wall_ms ?models () =
  { conflicts; propagations; ticks; wall_ms; models }

let is_unlimited l = l = no_limits

(* --- groups --- *)

type group = bool Atomic.t

let group () = Atomic.make false
let cancel_group g = Atomic.set g true
let group_cancelled g = Atomic.get g

(* --- tokens --- *)

type t = {
  conflict_cap : int; (* max_int = no cap *)
  prop_cap : int;
  tick_cap : int;
  model_cap : int;
  deadline : float; (* absolute gettimeofday seconds; infinity = no cap *)
  capped : bool; (* any finite cap above (fast path when false) *)
  mutable conflicts : int;
  mutable props : int;
  mutable ticks : int;
  mutable models : int;
  cancelled : bool Atomic.t;
  grp : group option;
  mutable trip_reason : reason option;
}

let token ?group:grp (l : limits) =
  let cap = function Some c -> max 0 c | None -> max_int in
  let deadline =
    match l.wall_ms with
    | Some ms -> Unix.gettimeofday () +. (ms /. 1000.)
    | None -> infinity
  in
  {
    conflict_cap = cap l.conflicts;
    prop_cap = cap l.propagations;
    tick_cap = cap l.ticks;
    model_cap = cap l.models;
    deadline;
    capped =
      l.conflicts <> None || l.propagations <> None || l.ticks <> None
      || l.wall_ms <> None || l.models <> None;
    conflicts = 0;
    props = 0;
    ticks = 0;
    models = 0;
    cancelled = Atomic.make false;
    grp;
    trip_reason = None;
  }

let cancel tok = Atomic.set tok.cancelled true
let tripped tok = tok.trip_reason

(* --- process-wide trip counter (bench meta) --- *)

let trips = Atomic.make 0
let exhausted_total () = Atomic.get trips

(* --- domain-local state --- *)

module Fault_state = struct
  type kind = Unknown_answer | Solver_failure
end

type state = {
  mutable tok : t option;
  mutable fault_after : int; (* -1 = disarmed *)
  mutable fault_kind : Fault_state.kind;
}

let key =
  Domain.DLS.new_key (fun () ->
      { tok = None; fault_after = -1; fault_kind = Fault_state.Unknown_answer })

let state () = Domain.DLS.get key

let active () = (state ()).tok <> None
let current () = (state ()).tok

let with_token tok f =
  let st = state () in
  let saved = st.tok in
  st.tok <- Some tok;
  Fun.protect ~finally:(fun () -> st.tok <- saved) f

(* --- tripping --- *)

let n_exhausted = Ddb_obs.Trace.name "budget.exhausted"
let n_reason = Ddb_obs.Trace.name "reason"

let trip tok r =
  tok.trip_reason <- Some r;
  Atomic.incr trips;
  if Ddb_obs.Trace.enabled () then
    Ddb_obs.Trace.instant_args n_exhausted
      [ (n_reason, Ddb_obs.Trace.Str (string_of_reason r)) ];
  raise (Out_of_budget r)

(* Sticky trip, cancellation and the wall deadline — the checks every
   probe performs before consuming anything. *)
let validate tok =
  (match tok.trip_reason with Some r -> raise (Out_of_budget r) | None -> ());
  if
    Atomic.get tok.cancelled
    || match tok.grp with Some g -> Atomic.get g | None -> false
  then trip tok Cancelled;
  if tok.deadline < infinity && Unix.gettimeofday () > tok.deadline then
    trip tok Budget_exhausted

let consume_ticks tok n =
  tok.ticks <- tok.ticks + n;
  if tok.ticks > tok.tick_cap then trip tok Budget_exhausted

(* --- probe sites --- *)

let charge ?(conflicts = 0) ?(propagations = 0) () =
  match (state ()).tok with
  | None -> ()
  | Some tok ->
    validate tok;
    if tok.capped then begin
      tok.conflicts <- tok.conflicts + conflicts;
      tok.props <- tok.props + propagations;
      if tok.conflicts > tok.conflict_cap || tok.props > tok.prop_cap then
        trip tok Budget_exhausted;
      consume_ticks tok conflicts
    end

let on_solve () =
  match (state ()).tok with
  | None -> ()
  | Some tok ->
    validate tok;
    if tok.capped then consume_ticks tok 1

let check () =
  match (state ()).tok with
  | None -> ()
  | Some tok ->
    validate tok;
    if tok.capped then consume_ticks tok 1

let on_model () =
  match (state ()).tok with
  | None -> ()
  | Some tok ->
    validate tok;
    if tok.capped then begin
      tok.models <- tok.models + 1;
      if tok.models > tok.model_cap then trip tok Budget_exhausted
    end

(* --- fault injection --- *)

module Fault = struct
  type kind = Fault_state.kind = Unknown_answer | Solver_failure

  exception Simulated_solver_failure

  let arm ?(kind = Unknown_answer) ~after () =
    if after < 0 then invalid_arg "Budget.Fault.arm: negative countdown";
    let st = state () in
    st.fault_after <- after;
    st.fault_kind <- kind

  let disarm () = (state ()).fault_after <- -1
  let armed () = (state ()).fault_after >= 0
end

let fire_fault st =
  st.fault_after <- -1;
  (* disarm before raising: the fault fires exactly once *)
  match st.fault_kind with
  | Fault_state.Unknown_answer ->
    (match st.tok with
    | Some tok -> trip tok Injected_fault
    | None ->
      Atomic.incr trips;
      if Ddb_obs.Trace.enabled () then
        Ddb_obs.Trace.instant_args n_exhausted
          [ (n_reason, Ddb_obs.Trace.Str (string_of_reason Injected_fault)) ];
      raise (Out_of_budget Injected_fault))
  | Fault_state.Solver_failure -> raise Fault.Simulated_solver_failure

let on_oracle_op () =
  let st = state () in
  if st.fault_after >= 0 then
    if st.fault_after = 0 then fire_fault st
    else st.fault_after <- st.fault_after - 1;
  match st.tok with
  | None -> ()
  | Some tok ->
    validate tok;
    if tok.capped then consume_ticks tok 1

(* --- the retry ladder --- *)

(* One attempt per token; a second, with every cap escalated 4x, only after
   genuine exhaustion of a finite budget — a cancelled or fault-injected run
   would just trip again, and an unlimited budget has no cap to raise. *)
let run ?group ?(retry = false) ?(on_trip = ignore) lims f =
  let escalate (l : limits) =
    let scale = Option.map (fun c -> c * 4) in
    {
      conflicts = scale l.conflicts;
      propagations = scale l.propagations;
      ticks = scale l.ticks;
      wall_ms = Option.map (fun ms -> ms *. 4.) l.wall_ms;
      models = scale l.models;
    }
  in
  let rec attempt ~can_retry lims =
    match with_token (token ?group lims) f with
    | v -> Ok v
    | exception Out_of_budget r ->
      on_trip r;
      if can_retry && r = Budget_exhausted then attempt ~can_retry:false (escalate lims) else Error r
  in
  attempt ~can_retry:(retry && not (is_unlimited lims)) lims
