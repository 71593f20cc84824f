(** Machine-readable exports of the always-on observability state
    (counters and spans) — the serialization path behind the CLI's
    [--stats-json] flag. *)

val schema_name : string
(** ["akg-repro-stats"]. *)

val version : int
(** Current stats format version (2).  Version 1 lacked the
    ["histograms"] section; the envelope is additive, so version-1
    documents remain readable by key. *)

val stats_json : unit -> Json.t
(** [{"schema": "akg-repro-stats", "version": 2, "counters": ...,
    "spans": ..., "histograms": ...}]: the nonzero counters as a flat
    object, the span report as [{path: {"calls": n, "total_ms": t}}] and
    the nonempty histograms as [{name: {count, sum, min, max, mean, p50,
    p90, p99, p999}}] (see {!Histogram.summary_json}). *)

val write_run : stats:bool -> ?trace:string -> ?stats_json:string -> unit -> bool
(** The end of a CLI run's observability: writes the trace to [trace]
    ({!Trace.write_file}) and {!stats_json} to [stats_json], then with
    [~stats] prints the counter table, the pass-timing report and the
    nonempty histograms to stdout.  A file that cannot be written is reported on
    stderr; the result is [false] when any was not written. *)
