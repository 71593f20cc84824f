(** Observability substrate for the scheduling pipeline.

    Four near-zero-overhead primitives shared by every layer of the
    reproduction:
    - {!Counters}: named monotone counters (ILP solves, simplex pivots,
      backtracks, simulated memory transactions, ...);
    - {!Histogram}: log-bucketed mergeable latency histograms with
      deterministic parallel merge (p50/p90/p99/p99.9 for the serve
      path);
    - {!Span}: hierarchical wall-clock timing with an aggregate report
      (where does compile time go);
    - {!Trace}: an append-only structured event log with JSON emission
      (why was this schedule chosen), carried by the {!Json} value type.

    Counters, histograms and spans are always on (an increment or a
    clock read); tracing is opt-in via {!Trace.enable} — the CLI's
    [--trace FILE.json] and [--stats] flags are thin wrappers over this
    module.

    All four record through one domain-local {e capture}: outside every
    capture they write the shared state, and inside {!scoped} they write
    the capture instead, which {!merge} later folds back.  That is the
    [Service.Pool] contract: each task runs in a capture on whichever
    domain claims it, the caller's among them, and the caller merges the
    captures in task order, so [--jobs N] reports exactly what
    [--jobs 1] does.

    On top of the emitting side sits the analytics side: {!Tracefile}
    reads a written trace back and normalizes away wall-clock noise,
    {!Summary} folds it into a structural fingerprint with a diff (the
    CLI's [report] / [diff] subcommands and the [test/golden] CI gate),
    {!Chrome} exports the trace for [ui.perfetto.dev], {!Export}
    serializes counters, spans and histogram summaries for
    [--stats-json], and {!Metrics} renders everything as a
    Prometheus-style text exposition (the [metrics] subcommand and serve
    verb). *)

module Json = Json
module Counters = Counters
module Histogram = Histogram
module Metrics = Metrics
module Span = Span
module Trace = Trace
module Tracefile = Tracefile
module Summary = Summary
module Chrome = Chrome
module Export = Export

type capture
(** What one {!scoped} call recorded: counter deltas, span cells,
    histogram cells and buffered trace events. *)

val scoped : (unit -> 'a) -> 'a * capture
(** [scoped f] runs [f] in a fresh capture on the current domain and
    returns its result with what it recorded, which is {e not} applied
    to the enclosing state until {!merge}.  Inside, {!Counters.find},
    {!Counters.value} and {!Histogram.find} read the shared value plus
    the innermost capture's delta (so a delta taken within one capture
    is exact), and span paths keep the enclosing span stack.  If [f] raises, the capture is merged before the exception
    propagates, so nothing recorded is lost. *)

val merge : capture -> unit
(** Folds a capture into the current context: the enclosing capture when
    called inside one, the shared state otherwise.  Trace events are
    appended in emission order and renumbered. *)

val spans : capture -> (string * int * float) list
(** The capture's [(path, calls, total_seconds)] span entries, sorted by
    path. *)

val reset_all : unit -> unit
(** Zeroes every counter, resets every histogram, clears the span report
    and drops the recorded trace — call between measured runs (does not
    change whether tracing is enabled). *)
