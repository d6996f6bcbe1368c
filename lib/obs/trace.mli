(** Structured tracing: span begin/end + instant events with interned names
    and key:value attributes, recorded into per-domain buffers (one
    [Domain.DLS] buffer per domain — recording never locks) and drained
    into a single Chrome trace-event JSON file loadable in chrome://tracing
    or {{:https://ui.perfetto.dev}Perfetto}.

    Probes are free when tracing is off: every emitter first reads one
    process-global flag ([enabled]) and returns immediately.  Call sites on
    hot paths should guard attribute construction behind {!enabled}
    themselves so no argument list is allocated for a disabled probe.

    Buffers are concatenated in [tid] order at drain time, so output does
    not depend on domain scheduling.  With the {!Logical} clock (the
    default) timestamps are per-domain probe ticks and the trace is
    byte-identical across runs of a deterministic workload; with {!Wall}
    they are microseconds normalized to the [start] origin. *)

type value = Int of int | Bool of bool | Str of string | Float of float

type clock =
  | Wall  (** µs from [Unix.gettimeofday], normalized to the start origin *)
  | Logical  (** deterministic per-domain tick per clock read *)

type name
(** An interned event/attribute name. *)

val name : string -> name
(** Intern a name (idempotent; takes a global lock — intern once per probe
    site, at module initialization, not per event). *)

(** {1 Lifecycle} *)

val start : ?clock:clock -> unit -> unit
(** Clear all buffers, set the clock (default {!Logical}), capture the wall
    origin and enable recording. *)

val stop : unit -> unit
(** Disable recording.  Buffers are kept until the next [start]. *)

val enabled : unit -> bool
val current_clock : unit -> clock

val set_tid : int -> unit
(** Set the calling domain's thread id in the trace ([0] by default; the
    pool sets each worker domain to its worker index). *)

(** {1 Recording}

    All emitters are no-ops while tracing is disabled. *)

val begin_ : name -> unit
val begin_args : name -> (name * value) list -> unit
val end_ : name -> unit
val end_args : name -> (name * value) list -> unit
val instant : name -> unit
val instant_args : name -> (name * value) list -> unit

val with_span : ?args:(name * value) list -> name -> (unit -> 'a) -> 'a
(** Begin/end around the thunk, exception-safe ([Fun.protect]). *)

(** {1 Draining}

    Only drain while no domain is emitting (after the pool joined or shut
    down). *)

val events_recorded : unit -> int
val dropped : unit -> int

val dump : unit -> (int * string * char * int) list
(** [(tid, name, phase, ts)] per event, in output order (ascending tid,
    buffer order within a tid) — the structured view tests validate. *)

type span = {
  name : string;
  dur : int;  (** end minus begin timestamp: µs ({!Wall}) or ticks *)
  args : (string * value) list;  (** the end event's attributes *)
}

val spans : unit -> span list
(** Every closed span, in order of its end event within each buffer,
    buffers in output order.  Spans still open are left out. *)

val to_string : unit -> string
(** The Chrome trace-event JSON object
    [{"traceEvents":[…],"displayTimeUnit":…,"otherData":{…}}]. *)

val add_escaped : Buffer.t -> string -> unit
(** Append a string's JSON escaping (no surrounding quotes) — the one
    escaper every hand-rolled JSON writer here uses. *)

val write_file : string -> unit
