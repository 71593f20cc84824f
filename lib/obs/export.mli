(** Machine-readable exports of the always-on observability state
    (counters and spans) — the serialization path shared by the CLI's
    [--stats-json] flag and the bench driver's [BENCH_*.json] files. *)

val schema_name : string
(** ["akg-repro-stats"]. *)

val version : int
(** Current stats format version (2).  Version 1 lacked the
    ["histograms"] section; the envelope is additive, so version-1
    documents remain readable by key. *)

val counters_json : ?base:(string * int) list -> unit -> Json.t
(** Nonzero counters as a flat object.  With [~base] (an earlier
    {!Counters.snapshot}), nonzero {e deltas} against it instead —
    how a measured region moved the counters. *)

val spans_json : unit -> Json.t
(** The span report as [{path: {"calls": n, "total_ms": t}}]. *)

val histograms_json : unit -> Json.t
(** Nonempty histograms as [{name: {count, sum, min, max, mean, p50,
    p90, p99, p999}}] (see {!Histogram.summary_json}). *)

val stats_json : unit -> Json.t
(** [{"schema": "akg-repro-stats", "version": 2, "counters": ...,
    "spans": ..., "histograms": ...}]. *)

val write_stats : string -> unit
(** Writes {!stats_json} to a file. *)

val write_run : stats:bool -> ?trace:string -> ?stats_json:string -> unit -> bool
(** The end of a run's observability, shared by the CLI and the bench
    driver: writes the trace to [trace] ({!Trace.write_file}) and
    {!stats_json} to [stats_json], then with [~stats] prints
    the counter table, the pass-timing report and the nonempty
    histograms to stdout.  A file that cannot be written is reported on
    stderr; the result is [false] when any was not written. *)
