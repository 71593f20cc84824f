(** Hierarchical wall-clock spans.

    [with_ "codegen.gen" f] times [f] and accumulates the elapsed wall
    time under the current span {e path}: nesting [with_] calls builds
    slash-separated paths such as ["harness.op/scheduler.schedule"], so
    the report attributes time to where it was actually spent.  Span
    names must be static strings (operator names and other dynamic data
    belong in {!Trace} event fields, not in span paths — dynamic names
    would make the aggregate table unbounded).

    {b Domain safety.}  The span stack is domain-local, and a span records
    into the innermost {!Obs.scoped} capture open when it closes (the
    shared report outside every capture).  A capture keeps the enclosing
    stack, so a path does not depend on whether it was captured, and a
    domain spawned inside a span (a [Service.Pool] helper) starts with a
    copy of its parent's stack, so a path does not depend on the domain
    either.  The pool's caller folds each task's capture back with
    {!Obs.merge} after the join, so [--stats] timing reports keep working
    under [--jobs]. *)

val with_ : string -> (unit -> 'a) -> 'a
(** Runs the thunk inside a span; exception-safe (the span is closed and
    recorded even when the thunk raises). *)

val timed : (unit -> 'a) -> 'a * float
(** Runs the thunk and returns its result with the elapsed wall-clock
    seconds, without recording a span — for callers that want to attach a
    duration to a trace event. *)

val depth : unit -> int
(** Current nesting depth (0 outside any span). *)

val reset : unit -> unit
(** Clears the accumulated report (safe inside an open span: enclosing
    spans still record when they close). *)

val report : unit -> (string * int * float) list
(** [(path, count, total_seconds)] for every path seen since the last
    {!reset}, sorted by path — so children sort under their parents.
    Inside an {!Obs.scoped} capture, reports the capture's entries
    only. *)

val pp_report : Format.formatter -> unit -> unit
(** Human-readable table of {!report}: path, call count, total and mean
    milliseconds. *)
