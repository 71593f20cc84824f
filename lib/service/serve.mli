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
    repeated requests are answered from the cache with ["cached": true].  The
    kernel enters the key as its name and {!Ir.Kernel.digest}, which is
    exact (float constants by their bits), so kernels that differ in any
    field never share an entry.  The key does not carry the requested op
    name and the stored payload does not hold it: the reply puts the
    request's own ["op"] first among its fields.  So every spelling
    [find_op] resolves to one kernel (["lstm/lstm_ew_000"],
    ["LSTM/lstm_ew_000"]) shares one entry.

    The hit path.  A cache hit on a named operator is answered from
    memory when the handler has seen its reply before: the handler keeps
    the ok replies of the named kernels of one digest as text, by (kernel
    name, version name, machine name), beside their operator (see
    below).  Such a memory hit parses the
    request, finds the operator and puts the request's
    [status/id/cached/digest/op] head in front of the kept text and its
    timing fields after it ([spans] is empty); it makes no key, reads no
    file and counts [service.cache_hits] and [service.cache_memory_hits].
    A reply is kept only once the disk holds it: after its own
    {!Cache.store} succeeded or after {!Cache.find} validated it, so
    without a cache nothing is kept and every request compiles.  A memory
    hit does not refresh the entry's mtime, and it cannot see damage done
    to the entry file after the file was read or written.  Any other hit
    makes its key ({!Key.make}: the kernel's digest is computed once and
    kept in the kernel), reads and checks the entry ({!Cache.find}) and
    prints the reply; nothing is scheduled or simulated.  Inline kernels
    always take that disk path.  A miss whose store fails (the cache
    directory removed or unwritable) is still an ok reply with
    ["cached": false]; it counts [service.cache_store_failures] and is not
    kept.

    One compile per distinct kernel.  The handler keeps one table, by
    {!Ir.Kernel.digest}: each entry holds the
    {!Harness.Pipeline.operator} of the first named kernel of that digest,
    made on its first miss or disk hit, and the kept replies.  A miss on a
    named request compiles with that operator {!Harness.Pipeline.share}d
    over the request's own kernel.  So every spelling, every equal kernel
    [find_op] returns and every other named kernel of the same digest
    shares one dependence analysis, one schedule per client, one lowering
    per version and one simulation per version and machine: novec, infl
    and cpu take one vectorizer schedule (counted in
    [pipeline.schedule_reuses]), and cpu takes infl's lowering.  A miss
    that takes a kept schedule has no scheduler spans in its ["spans"].  A
    shared operator's output is a fresh one's over the request's own
    kernel, so replies, digests and cache files are the same with or
    without the table.  A reply built from another name's work is still
    ["cached":false]: no cache entry held it, and it is checked for
    legality and stored under its own key like any other miss.  Inline
    kernels are decoded per request and get a fresh operator every time;
    they never enter the table, so it holds at most one entry per digest
    of the kernels [find_op] can return (the CLI's registry: 223 zoo
    operators and 15 classics, whose 217 Table I operators have 80
    digests), each with at most one kept reply per (kernel name, version,
    machine), and needs no size bound.  It sits behind a mutex (a handler
    may be shared between domains) and is dropped with the handler.

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
