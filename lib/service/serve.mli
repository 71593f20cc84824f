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
      ["infl"]; ["machine"] defaults to the handler's default (V100).
      A C reply carries ["cpu_machine"], ["isa"], the emitted ["source"]
      and its ["source_bytes"] instead of a simulated ["time_us"]; serve
      never invokes the host toolchain.  ["cpu"] is infl emitted as C
      ({!Harness.Pipeline.resolve}): for the requested machine when it
      is a CPU profile, for the portable scalar profile otherwise; the
      reply still names the requested version and machine.  An optional ["strategy"] (["fastpath-then-ilp"]
      or ["ilp-only"]) is accepted for compatibility and answered like
      a request without it, since both strategies give the same
      schedule; any other value is a structured error.
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
    (kernel, requested machine, requested version name, entry=serve) and repeated
    requests are answered from disk with ["cached": true].  The key does
    not carry the requested op name (the kernel's text names the kernel)
    and the stored payload does not hold it: the reply puts the request's
    own ["op"] first among its fields.  So every spelling [find_op]
    resolves to one kernel (["lstm/lstm_ew_000"], ["LSTM/lstm_ew_000"])
    shares one entry, and so does every name of an equal kernel.

    The hit path.  A cache hit parses the request, finds the operator,
    takes its key, reads and checks the entry ({!Cache.find}) and prints
    the reply; nothing is scheduled or simulated.

    One entry per named operator.  The handler keeps, per op name, the
    kernel [find_op] returned, a {!Harness.Pipeline.operator} for it and
    its cache keys by (version name, machine name), each with the machine
    it was made for.  Making a {!Key} prints the whole kernel, so a
    request reuses the entry's key when one is there (counted in
    [service.serve_key_hits]); a miss compiles with the entry's operator,
    so the operator's versions share one dependence analysis, and novec,
    infl and cpu one vectorizer schedule (counted in
    [pipeline.schedule_reuses]).  A reused miss's ["spans"] therefore
    show no scheduler spans.  The entry serves only while [find_op]
    returns the {e physically} same kernel ([==]), and a key only for the
    physically same machine profile; otherwise the handler makes them
    afresh and replaces the entry (a new kernel gets a new operator).  A
    reused key is the one {!Key.make} would give and a reused operator's
    output is a fresh one's, so replies, digests and cache files are the
    same with or without the table.  Inline kernels are decoded per
    request and get a fresh operator and key every time.  The table holds
    at most one entry per name [find_op] resolves (the CLI's registry:
    223 zoo operators and 15 classics; the dependences and vectorizer
    schedules of the 217 Table I operators take about 0.6 MiB), sits
    behind a mutex (a handler may be shared between domains) and is
    dropped with the handler.  A [find_op] that builds a fresh kernel per
    call is correct but never shares anything.

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
  ?default_machine:Gpusim.Machine.t ->
  ?max_request_bytes:int ->
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
