(* Structured tracing for the empirical complexity harness.

   Probe sites (the oracle engine, the CDCL solver, the CEGAR loop, the
   domain pool) emit span begin/end and instant events with string-interned
   names and a handful of key:value attributes.  Events land in per-domain
   buffers (Domain.DLS, like lib/sat/stats.ml): a domain only ever appends
   to its own buffer, so recording needs no lock — the only synchronized
   structure is the registry of buffers, touched once per domain, and the
   name-interning table, touched once per distinct name.

   With tracing disabled (the default) every probe is a single load of an
   immutable-until-toggled flag; no event is allocated, no clock is read.
   That is the property the bench's engine section budget (≤2% overhead)
   rests on.

   Draining produces one Chrome trace-event JSON object — loadable in
   chrome://tracing and Perfetto — with the per-domain buffers concatenated
   in worker-index (tid) order, so the byte layout of the file does not
   depend on which physical domain got scheduled first.

   Two clocks:
     - [Logical]: every timestamp read returns a per-domain tick counter
       and increments it.  Span durations count probe events, not seconds,
       and the trace is byte-identical across runs for a deterministic
       workload (the default for [ddbtool --trace]; at jobs > 1 too, since
       a batch runs item k on worker k mod jobs).
     - [Wall]: microseconds from Unix.gettimeofday, normalized to the
       origin captured at [start] — real latencies, not reproducible. *)

type value = Int of int | Bool of bool | Str of string | Float of float
type clock = Wall | Logical

(* ------------------------------------------------------------------ *)
(* String interning                                                    *)

type name = int

let intern_mutex = Mutex.create ()
let intern_tbl : (string, int) Hashtbl.t = Hashtbl.create 64
let rev_tbl : (int, string) Hashtbl.t = Hashtbl.create 64

let name s =
  Mutex.lock intern_mutex;
  let id =
    match Hashtbl.find_opt intern_tbl s with
    | Some id -> id
    | None ->
      let id = Hashtbl.length intern_tbl in
      Hashtbl.add intern_tbl s id;
      Hashtbl.add rev_tbl id s;
      id
  in
  Mutex.unlock intern_mutex;
  id

let string_of_name id =
  Mutex.lock intern_mutex;
  let s = Option.value (Hashtbl.find_opt rev_tbl id) ~default:"?" in
  Mutex.unlock intern_mutex;
  s

(* ------------------------------------------------------------------ *)
(* Per-domain event buffers                                            *)

type event = {
  ev_name : name;
  ph : char; (* 'B' begin | 'E' end | 'i' instant *)
  ts : int; (* µs (Wall) or tick (Logical) *)
  args : (name * value) list;
}

type buf = {
  mutable tid : int;
  seq : int; (* registration order; breaks ties among same-tid buffers *)
  mutable events : event array;
  mutable len : int;
  mutable dropped : int;
  mutable tick : int; (* the Logical clock *)
}

let enabled_flag = Atomic.make false
let clock_mode = Atomic.make Logical
let origin_us = Atomic.make 0

(* Hard cap per buffer: past it events are counted as dropped, never
   silently truncated (the drop count is emitted in the trace metadata). *)
let max_events = 1 lsl 22

let registry_mutex = Mutex.create ()
let bufs : buf list ref = ref []
let next_seq = ref 0

let fresh_buf () =
  Mutex.lock registry_mutex;
  let b =
    { tid = 0; seq = !next_seq; events = [||]; len = 0; dropped = 0; tick = 0 }
  in
  incr next_seq;
  bufs := b :: !bufs;
  Mutex.unlock registry_mutex;
  b

let buf_key = Domain.DLS.new_key fresh_buf
let my_buf () = Domain.DLS.get buf_key

let enabled () = Atomic.get enabled_flag
let set_tid tid = (my_buf ()).tid <- tid

let now b =
  match Atomic.get clock_mode with
  | Logical ->
    let t = b.tick in
    b.tick <- t + 1;
    t
  | Wall -> int_of_float (Unix.gettimeofday () *. 1e6) - Atomic.get origin_us

let push b e =
  let cap = Array.length b.events in
  if b.len >= cap then
    if cap = 0 then b.events <- Array.make 1024 e
    else if cap < max_events then begin
      let arr = Array.make (min max_events (2 * cap)) e in
      Array.blit b.events 0 arr 0 cap;
      b.events <- arr
    end;
  if b.len < Array.length b.events then begin
    b.events.(b.len) <- e;
    b.len <- b.len + 1
  end
  else b.dropped <- b.dropped + 1

let emit ph ev_name args =
  if Atomic.get enabled_flag then begin
    let b = my_buf () in
    let ts = now b in
    push b { ev_name; ph; ts; args }
  end

let begin_ n = emit 'B' n []
let begin_args n args = emit 'B' n args
let end_ n = emit 'E' n []
let end_args n args = emit 'E' n args
let instant n = emit 'i' n []
let instant_args n args = emit 'i' n args

let with_span ?(args = []) n f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    begin_args n args;
    Fun.protect ~finally:(fun () -> end_ n) f
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let n_trace_start = name "trace.start"

let start ?(clock = Logical) () =
  Atomic.set enabled_flag false;
  Mutex.lock registry_mutex;
  List.iter
    (fun b ->
      b.len <- 0;
      b.dropped <- 0;
      b.tick <- 0)
    !bufs;
  Mutex.unlock registry_mutex;
  Atomic.set clock_mode clock;
  Atomic.set origin_us (int_of_float (Unix.gettimeofday () *. 1e6));
  Atomic.set enabled_flag true;
  (* registers (and orders) the starting domain's buffer before any
     worker can emit, so same-tid buffers have a deterministic sequence *)
  instant n_trace_start

let stop () = Atomic.set enabled_flag false

let current_clock () = Atomic.get clock_mode

(* ------------------------------------------------------------------ *)
(* Draining                                                            *)

(* Buffers in output order: ascending tid, registration order within a
   tid.  Only call while no domain is emitting (after a pool join or
   shutdown): the join's mutex hand-off publishes the workers' writes. *)
let sorted_bufs () =
  Mutex.lock registry_mutex;
  let bs = List.filter (fun b -> b.len > 0) !bufs in
  Mutex.unlock registry_mutex;
  List.sort
    (fun a b ->
      if a.tid <> b.tid then compare a.tid b.tid else compare a.seq b.seq)
    bs

let events_recorded () =
  List.fold_left (fun acc b -> acc + b.len) 0 (sorted_bufs ())

let dropped () =
  Mutex.lock registry_mutex;
  let n = List.fold_left (fun acc b -> acc + b.dropped) 0 !bufs in
  Mutex.unlock registry_mutex;
  n

let dump () =
  List.concat_map
    (fun b ->
      List.init b.len (fun i ->
          let e = b.events.(i) in
          (b.tid, string_of_name e.ev_name, e.ph, e.ts)))
    (sorted_bufs ())

type span = { name : string; dur : int; args : (string * value) list }

(* Pair each buffer's begin and end events with a stack (a buffer belongs
   to one domain, so its spans nest).  Spans left open, or cut by the
   event cap, are skipped. *)
let spans () =
  List.concat_map
    (fun b ->
      let open_ = Stack.create () in
      let out = ref [] in
      for i = 0 to b.len - 1 do
        let e = b.events.(i) in
        match e.ph with
        | 'B' -> Stack.push e.ts open_
        | 'E' -> (
          match Stack.pop_opt open_ with
          | Some ts0 ->
            out :=
              {
                name = string_of_name e.ev_name;
                dur = e.ts - ts0;
                args = List.map (fun (k, v) -> (string_of_name k, v)) e.args;
              }
              :: !out
          | None -> ())
        | _ -> ()
      done;
      List.rev !out)
    (sorted_bufs ())

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON                                             *)

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_value buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Float f -> Buffer.add_string buf (Printf.sprintf "%.3f" f)
  | Str s ->
    Buffer.add_char buf '"';
    add_escaped buf s;
    Buffer.add_char buf '"'

let add_event buf ~tid e =
  Buffer.add_string buf "{\"name\":\"";
  add_escaped buf (string_of_name e.ev_name);
  Buffer.add_string buf "\",\"ph\":\"";
  Buffer.add_char buf e.ph;
  Buffer.add_string buf "\",\"ts\":";
  Buffer.add_string buf (string_of_int e.ts);
  Buffer.add_string buf ",\"pid\":1,\"tid\":";
  Buffer.add_string buf (string_of_int tid);
  (if e.ph = 'i' then Buffer.add_string buf ",\"s\":\"t\"");
  (match e.args with
  | [] -> ()
  | args ->
    Buffer.add_string buf ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        add_escaped buf (string_of_name k);
        Buffer.add_string buf "\":";
        add_value buf v)
      args;
    Buffer.add_char buf '}');
  Buffer.add_char buf '}'

let to_string () =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  List.iter
    (fun b ->
      for i = 0 to b.len - 1 do
        if !first then first := false else Buffer.add_char buf ',';
        Buffer.add_char buf '\n';
        add_event buf ~tid:b.tid b.events.(i)
      done)
    (sorted_bufs ());
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"";
  Buffer.add_string buf
    (match Atomic.get clock_mode with Logical -> "logical" | Wall -> "wall");
  Buffer.add_string buf "\",\"dropped\":";
  Buffer.add_string buf (string_of_int (dropped ()));
  Buffer.add_string buf "}}\n";
  Buffer.contents buf

let write oc = output_string oc (to_string ())

let write_file path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc)
