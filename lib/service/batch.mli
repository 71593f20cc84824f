(** Sharded, cache-aware suite evaluation: the one Table II suite
    runner, behind [akg_repro network] (Table II is [network --all]).

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

val evaluate_suite :
  ?machine:Gpusim.Machine.t ->
  ?progress:(string -> unit) ->
  ?cache:Cache.t ->
  ?jobs:int ->
  (string * Ir.Kernel.t) list ->
  Harness.Eval.op_result list
(** [progress] is invoked for every operator, in suite order, before any
    compilation is dispatched (under [jobs > 1] the work completes out of
    order, so per-completion callbacks would interleave). *)

val eval_key :
  machine:Gpusim.Machine.t ->
  name:string ->
  Ir.Kernel.t ->
  Key.t
(** The cache key of one operator's four-version evaluation (exposed for
    tests and cache tooling). *)
