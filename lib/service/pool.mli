(** Bounded worker pool on OCaml 5 domains, with deterministic
    observability.

    [map ~jobs f xs] applies [f] to every element of [xs], running up to
    [jobs] tasks concurrently on spawned domains.  Results come back in
    input order regardless of completion order, and every task runs in
    one {!Obs.scoped} capture on its worker domain: after joining the
    workers, the coordinator passes each task's capture (counter deltas,
    span cells, histogram cells and trace events) to {!Obs.merge}
    {e in task-index order}.
    Consequently a parallel run is observationally bit-identical to a
    sequential one — same counter totals, same histogram snapshots, same
    trace event sequence — which is what lets [--jobs N] reproduce
    Table II exactly.

    The coordinator's request id (see {!Obs.Trace.with_request}) is
    re-installed on workers, so trace events a task emits carry the
    request that dispatched it.

    Tasks must be independent: they may not assume shared mutable state
    beyond the Obs layer (the compilation pipeline is pure per kernel).
    A task that raises fails the whole [map] with that exception, after
    all tasks have run and been merged. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — what [--jobs 0] resolves to. *)

val parallelizable : ?cores:int -> jobs:int -> int -> bool
(** [parallelizable ~jobs n] — whether [map ~jobs] over [n] tasks would
    spawn worker domains.  False when [jobs <= 1], [n <= 1], or the host
    has a single core ([cores], defaulting to
    [Domain.recommended_domain_count ()], is [<= 1]) — time-slicing
    domains on one core only adds capture and merge overhead (the
    BENCH_PR5 [par_speedup 0.49] pathology).  Exposed with the [cores]
    parameter so the single-core branch has a regression test on any
    host. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** When {!parallelizable} is false for the input — or when called from
    inside a pool worker (nested parallelism) — degrades to a plain
    sequential [List.map] on the current domain: same counters, same
    traces, no domain spawn, no capture. *)
