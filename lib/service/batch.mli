(** Sharded, cache-aware suite evaluation: the one Table II suite
    runner, behind [akg_repro network] and [bench/main.exe table2].

    {!Harness.Eval.evaluate_op} over a suite that (a) consults a
    {!Cache} before compiling each operator and stores fresh results
    after, and (b) shards the remaining compilations across a
    {!Pool}.  Results come back in suite order, and — because the pool
    merges observability deterministically and the simulator is a pure
    model — the rendered Table II rows and the merged counter totals are
    bit-identical for any [jobs] value.

    Cached operators skip compilation entirely (zero scheduler ILP
    solves on a warm run); their [op_result] is decoded from the stored
    payload, including the original run's wall-clock observations. *)

type tuning = {
  digest : string;
      (** content address of the tuning record the configuration came
          from — folded into the cache key so tuned and fixed-weight
          results never collide on disk *)
  tuning : Harness.Eval.tuning;  (** the configuration itself *)
}
(** A resolved tuning-record lookup, as produced by the [--tuned] flag's
    adapter over [Tune.Store] (kept abstract here so the service does not
    depend on the tuner). *)

val evaluate_suite :
  ?machine:Gpusim.Machine.t ->
  ?progress:(string -> unit) ->
  ?cache:Cache.t ->
  ?tuned:(string -> Ir.Kernel.t -> tuning option) ->
  ?jobs:int ->
  (string * Ir.Kernel.t) list ->
  Harness.Eval.op_result list
(** [progress] is invoked for every operator, in suite order, before any
    compilation is dispatched (under [jobs > 1] the work completes out of
    order, so per-completion callbacks would interleave).

    [tuned] resolves an operator to its tuning record, if any; operators
    it returns [None] for compile under the paper's fixed weights, so a
    partially-tuned suite degrades gracefully.  Each applied record
    counts [service.tuned_ops]. *)

val eval_key :
  ?tuned:tuning ->
  machine:Gpusim.Machine.t ->
  name:string ->
  Ir.Kernel.t ->
  Key.t
(** The cache key of one operator's four-version evaluation (exposed for
    tests and cache tooling).  When a tuning record was applied its
    digest is part of the key. *)
