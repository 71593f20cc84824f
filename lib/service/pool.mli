(** Bounded worker pool on OCaml 5 domains, with deterministic
    observability.

    [map ~jobs f xs] applies [f] to every element of [xs] through one code
    path for every job count.  It runs on {!workers}[ ~jobs n] domains
    ([n] the number of tasks): the calling domain and that many minus one
    helpers it spawns.  Each of them claims the next unrun task until none
    is left, so the caller works rather than waiting in [Domain.join]
    while tasks remain.  Results come back in input order regardless of
    completion order.

    Every task, at every job count, runs in its own {!Obs.scoped} capture
    on the domain that claimed it.  After joining the helpers, the caller
    passes each task's capture (counter deltas, span cells, histogram
    cells and trace events) to {!Obs.merge} {e in task-index order}.
    Consequently a run at any [--jobs] is observationally bit-identical to
    [--jobs 1] — same counter totals, same histogram snapshots, same trace
    event sequence — which is what lets [--jobs N] reproduce Table II
    exactly.

    A helper starts with the caller's request id (see
    {!Obs.Trace.with_request}) and span stack, so trace events a task
    emits carry the request that dispatched it and a span a task opens
    has the same path on every domain.

    Tasks must be independent: they may not assume shared mutable state
    beyond the Obs layer (the compilation pipeline is pure per kernel).
    Every task runs even when one of them raises; after the merge, the
    exception of the lowest-index task that raised is re-raised.

    A [map] called from inside a task (on any domain, the caller's
    included) spawns nothing: its tasks run on that domain, by the same
    loop, one after another. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — what [--jobs 0] resolves to. *)

val workers : ?cores:int -> jobs:int -> int -> int
(** [workers ~jobs n] — how many domains [map ~jobs] over [n] tasks runs
    on, the caller included: [max 1 (min jobs (min n cores))], where
    [cores] defaults to [Domain.recommended_domain_count ()].  So
    [jobs <= 1], [n <= 1] and a single core all mean the caller alone,
    and a map never starts more domains than the host has cores: a
    domain beyond the cores time-slices one of them, and every
    stop-the-world minor collection waits for it.  [cores] is a parameter
    so the cap has a test on any host. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
