(** The tuning oracle: scores one (operator, candidate) pair.

    [compute] runs the harness's [infl] version exactly — the same
    {!Harness.Pipeline} stages, with the candidate as the tuning of the
    influence tree — so a time the search observes here is the time
    [eval --tuned] will reproduce later.  That shared path
    is what makes the search's "tuned never worse than baseline"
    guarantee transfer from tuning to evaluation.

    Evaluations are memoized in the compile cache under a
    ["tune-infl"]-versioned key whose flags carry the candidate digest;
    repeated searches, re-runs with a wider beam, and CI smoke jobs all
    hit instead of recompiling.  Cache [find]/[store] are split from
    [compute] so the search can keep cache I/O on the coordinating
    domain while sharding only the miss computation across workers. *)

type measurement = {
  time_us : float;  (** simulated execution time *)
  cycles : float;  (** {!Gpusim.Sim.cycles} on the same machine *)
  vec : bool;  (** lowering produced a vector loop *)
  tiled : bool;  (** the backend tiling pass rewrote at least one chain *)
  influenced : bool;  (** scheduler accepted (some of) the influence tree *)
}

val key :
  ?tile:bool ->
  machine:Gpusim.Machine.t ->
  Ir.Kernel.t ->
  Candidate.t ->
  Service.Key.t
(** Compile-cache key for this evaluation: version ["tune-infl"]
    (["tune-tiled"] when [tile] is set), flags carrying the candidate
    digest. *)

val find : Service.Cache.t -> Service.Key.t -> measurement option option
(** [Some (Some m)] — cached successful measurement; [Some None] — the
    evaluation is cached as failed (the candidate crashes the pipeline
    on this kernel, don't retry); [None] — cache miss.  Coordinator-only,
    like all compile-cache access. *)

val compute :
  ?tile:bool ->
  machine:Gpusim.Machine.t ->
  Ir.Kernel.t ->
  Candidate.t ->
  measurement option
(** Runs the {!Harness.Pipeline} stages tree → schedule → lower →
    simulate from one dependence analysis; [None] if any stage raises (counted as
    [tune.eval_failures]) — except [Out_of_memory], [Stack_overflow] and
    [Sys.Break], which propagate.  Pure compute, safe to run on worker
    domains.  With [tile:true] the influence tree comes from
    {!Scheduling.Tiling.influence_for} instead of the vectorizer (the
    candidate's weights are inert, its [order] selects among tile-shape
    branches) and lowering is unvectorized, mirroring the harness's
    {b tiled} column.  Every evaluation is simulated on [machine], so a
    tuning record is reproducible on any host. *)

val store : Service.Cache.t -> Service.Key.t -> measurement option -> unit

val measure :
  ?cache:Service.Cache.t ->
  ?tile:bool ->
  machine:Gpusim.Machine.t ->
  Ir.Kernel.t ->
  Candidate.t ->
  measurement option
(** [find]-or-[compute]-then-[store] in one call, for sequential
    callers (tests, single-op tuning).  A failure (say
    {!Scheduling.Scheduler.Failure_no_schedule}) is deterministic, so it
    is stored as failed like a success is stored. *)
