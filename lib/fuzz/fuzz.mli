(** Randomized differential fuzzing of the whole compilation pipeline.

    The paper's central claim is that influence-constraint injection
    changes schedules, never semantics.  This subsystem stress-tests that
    claim beyond the hand-written operator zoo: {!Generate} draws random
    fusable kernels, {!Check} pushes each through isl-style scheduling,
    influenced scheduling, vectorization, mapping and codegen, validating
    every accepted schedule with {!Scheduling.Legality} and comparing
    {!Interp.run_original} to {!Interp.run_ast} bit-for-bit; {!Shrink}
    minimizes any failure to a small reproducing kernel, persisted as a
    replayable JSON case.

    Runs are observable like every other pass: counters [fuzz.cases],
    [fuzz.failures] and [fuzz.shrink_steps], trace events [fuzz.case] and
    [fuzz.failure].  The CLI front end is [akg_repro fuzz]. *)

module Rng = Rng
module Case = Case
module Generate = Generate
module Check = Check
module Shrink = Shrink

type failure_report = {
  index : int;  (** case index within the run *)
  case : Case.t;  (** as generated *)
  shrunk : Case.t;  (** after minimization *)
  shrink_steps : int;
  failure : Check.failure;  (** of the original case *)
  file : string option;  (** replay file, when an output directory was given *)
}

type report = {
  seed : int;
  count : int;
  failures : failure_report list;  (** chronological *)
}

val run :
  ?out_dir:string ->
  ?mutate:Check.mutation ->
  ?cpu_exec:Codegen_cpu.Runner.t ->
  ?progress:(failure_report -> unit) ->
  ?jobs:int ->
  seed:int ->
  count:int ->
  unit ->
  report
(** Generates and differentially checks [count] cases.  Failures are
    shrunk (preserving the failing version and stage) and, when
    [out_dir] is given, written there as replay files named
    [fuzz_<seed>_<index>.json] (the directory and its missing parents
    are created on first failure).  [mutate] plants a defect in every
    check, shrink probes included ({!Check.mutation}): the hook that
    proves the fuzzer catches a broken scheduler or tiler.  [cpu_exec]
    upgrades the emit-only C check of the infl lowering to a
    compile+execute differential on that runner (the CLI's
    [--cpu-exec]).  [progress] is called after each failure is
    minimized.

    [jobs > 1] shards the generate+check phase across a
    {!Service.Pool}.  Cases are a pure function of [(seed, index)], so
    the failing indices — and the replay files, since shrinking stays
    sequential in index order — are identical for every [jobs] value. *)

val schema_name : string
(** ["akg-repro-fuzz-case"], the replay-file schema tag. *)

val save_case :
  file:string -> seed:int -> index:int -> failure:Check.failure -> Case.t -> unit
(** Writes a replay file (shrunk case plus the failure it reproduces). *)

val load_case : string -> (Case.t * Check.failure, string) result
(** A failure whose [compiler] is ["cpu"] (written before the C checks
    were folded into infl) loads as an {b infl} failure. *)

val replay :
  ?cpu_exec:Codegen_cpu.Runner.t ->
  string ->
  (Case.t * (unit, Check.failure) result, string) result
(** Loads a replay file and re-runs the differential check on its case:
    [Ok (case, Ok ())] means the recorded failure no longer reproduces. *)
