(** Log₂-bucketed latency histograms with p50/p90/p99 summaries, and the
    per-op latency table folded from a trace's spans. *)

(** {1 Histograms}

    Bucket 0 holds values < 1; bucket [i] holds [[2^(i-1), 2^i)].
    Percentile estimates are bucket upper edges clamped to the observed
    [min, max] — within a factor of 2 of the true order statistic. *)

type histogram

val histogram : unit -> histogram
(** An empty histogram. *)

val observe : histogram -> float -> unit
(** Record one (non-negative; clamped) latency/size sample. *)

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val summarize : histogram -> summary
(** All-zero summary for an empty histogram. *)

(** {1 Per-op rows} *)

type row = {
  op : string;  (** the span name: [engine.<op>] or [fastpath.<op>] *)
  latency : summary;  (** span durations, in the trace clock's unit *)
  hits : int;  (** end events with [cache_hit = true] *)
  misses : int;  (** end events with [cache_hit = false] *)
}

val op_rows : Trace.span list -> row list
(** One row per oracle-op or fast-path span name, sorted by name.  Spans
    that ended [unwound] (their op raised) are not counted. *)
