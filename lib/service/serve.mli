(** The compile service's front door: line-delimited JSON over channels.

    Requests, one JSON object per line:
    {v
    {"op": "fig2"}
    {"op": "bert/bert_ew_000", "version": "novec", "machine": "a100"}
    {"kernel": <fuzz-case JSON>, "version": "isl", "id": "req-17"}
    {"verb": "metrics"}
    {"verb": "health"}
    v}

    The optional ["verb"] selects what the request does:
    - [compile] (the default): schedule and lower one kernel, then
      simulate it on a GPU profile or emit C on a CPU profile.
      ["version"] is one of {!Harness.Pipeline.names} and defaults to
      ["infl"]; ["machine"] defaults to V100.
      A C reply carries ["cpu_machine"], ["isa"], the emitted ["source"]
      and its ["source_bytes"] instead of a simulated ["time_us"]; serve
      never invokes the host toolchain.  ["cpu"] is infl emitted as C
      ({!Harness.Pipeline.resolve}): for the requested machine when it
      is a CPU profile, for the portable scalar profile otherwise; the
      reply still names the requested version and machine.  Any other
      field is ignored.
    - [metrics]: returns the full Prometheus-style exposition of every
      registered counter, gauge and histogram
      (see {!Obs.Metrics.exposition}) as the ["metrics"] string field.
    - [health]: liveness probe — uptime, request/error totals, cache
      entry count and bytes.

    Every reply carries the request's ["id"] (echoed from the request
    when it has a string or int [id] field, otherwise an auto-assigned
    ["r<seq>"]).  Compile replies additionally report their own timing:
    ["elapsed_us"] (wall-clock for the request) and ["spans"] (the
    per-phase breakdown recorded by {!Obs.Span} inside the request —
    calls and total microseconds per instrumented path).  While a
    request is handled its id is installed via {!Obs.Trace.with_request},
    so trace events it emits — including from pool workers — carry a
    ["req"] field.

    Success replies look like
    [{"status":"ok","id":I,"cached":B,"digest":D,"op":...,"version":...,
    "machine":...,"rows":N,"loop_dims":N,"scalar_dims":N,"ilp_solves":N,
    "fastpath_hits":N,"abandoned":B,"legal":B,"tiled":B,"time_us":F,
    "elapsed_us":F,"spans":{...}}] (C replies carry the C fields in place
    of ["time_us"]), and anything else — a malformed request, an inline
    kernel with a non-positive extent, a blank line, a line over the size limit, an unknown verb —
    is a structured [{"status":"error","id":I,"error":MSG}] reply that
    bumps [service.serve_errors]; the loop never crashes and keeps
    serving.

    With a {!Cache}, compile replies are stored keyed by
    (kernel, requested machine, requested version name, entry=serve) and
    repeated requests are answered from disk with ["cached": true].  The
    kernel enters the key as its name and {!Ir.Kernel.digest}, which is
    exact (float constants by their bits), so kernels that differ in any
    field never share an entry.  The key does not carry the requested op
    name and the stored payload does not hold it: the reply puts the
    request's own ["op"] first among its fields.  So every spelling
    [find_op] resolves to one kernel (["lstm/lstm_ew_000"],
    ["LSTM/lstm_ew_000"]) shares one entry.

    The hit path.  A cache hit parses the request, finds the operator,
    makes its key ({!Key.make}: the kernel's digest is computed once and
    kept in the kernel), reads and checks the entry ({!Cache.find}) and
    prints the reply; nothing is scheduled or simulated.

    One operator per kernel.  A miss on a named request compiles with the
    handler's {!Harness.Pipeline.operator} for the kernel's (name,
    digest), made on the first miss, so every spelling and every equal
    kernel [find_op] returns shares one: the versions share one
    dependence analysis, and novec, infl and cpu one vectorizer schedule
    (counted in [pipeline.schedule_reuses]).  A reused miss's ["spans"]
    therefore show no scheduler spans.  An operator's output is a fresh
    one's, so replies, digests and cache files are the same with or
    without the table.  Inline kernels are decoded per request and get a
    fresh operator every time, so the table holds at most one operator
    per kernel [find_op] can return (the CLI's registry: 223 zoo
    operators and 15 classics; the dependences and vectorizer schedules
    of the 217 Table I operators take about 0.6 MiB).  It sits behind a
    mutex (a handler may be shared between domains) and is dropped with
    the handler.

    Serve's legality check runs on every miss, after the pipeline's scope
    has closed, against the run's dependences: it shares no solver memo
    with the compile it checks.  A compile that raises
    {!Scheduling.Scheduler.Failure_no_schedule}, [Failure] or
    [Invalid_argument] is a structured error reply, and the operator keeps
    nothing from it.

    Latency lands in two histograms: [serve.request_seconds] (every
    request, any verb, errors included) and [serve.compile_seconds]
    (compile requests only, cache hits included).  {!make_handler}
    registers scrape-time gauges: [service.serve_uptime_seconds] and —
    when a cache is attached — [service.cache_entries] and
    [service.cache_bytes] backed by {!Cache.stats}.

    Operator-name resolution and inline-kernel decoding are injected, so
    this module stays independent of the operator zoo and the fuzzer's
    kernel format (the CLI wires [find_op] to classics + network/op
    lookup and [kernel_of_json] to [Fuzz.Case.of_json]). *)

type handler

val default_max_request_bytes : int
(** 1 MiB — request lines longer than this are answered with a
    structured error without being parsed. *)

val make_handler :
  ?kernel_of_json:(Obs.Json.t -> (Ir.Kernel.t, string) result) ->
  ?cache:Cache.t ->
  find_op:(string -> Ir.Kernel.t option) ->
  unit ->
  handler

val handle_line : handler -> string -> string
(** One request line in, one reply line out (no trailing newline).
    Total: every input — blank, oversized, unparseable — yields exactly
    one structured reply. *)

val serve : handler -> in_channel -> out_channel -> unit
(** Reads requests until EOF, writing and flushing one reply per line;
    blank lines get an ["empty request"] error reply rather than being
    silently skipped, so request/reply counts always match. *)
