(** Latency summaries by exact order statistics, and the per-op latency
    table folded from a trace's spans. *)

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val summarize : float list -> summary
(** Count, sum, extrema and nearest-rank percentiles of the samples: [p50]
    is the ⌈50·count/100⌉-th smallest sample, and so on.  All zero for no
    samples. *)

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
