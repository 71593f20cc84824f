(** The differential oracle: one kernel through the {!Harness.Pipeline}
    stages, all four versions, independent checks per version, then the
    C backend on the {b infl} lowering.  Lowering runs the vector pass at
    threshold 0 (not the version table's 2048) so the fuzzer's tiny
    kernels still exercise it.

    For each of {b isl} (baseline schedule, no vectorization),
    {b novec} (influenced schedule, no explicit vector types),
    {b infl} (influenced + vectorpass) and {b tiled} (tiling-influenced
    schedule, backend tiling pass, no vectorization), the driver runs
    scheduling, legality validation, lowering, a structural
    well-formedness pass over the emitted AST, and a bit-for-bit
    comparison of {!Interp.run_original} against {!Interp.run_ast}, then
    runs the performance model ({!Harness.Pipeline.simulate}), which must
    give a finite, positive time; a lowering that moves
    [tiling.chains_refused] fails at [Structure].  The first failing stage
    is reported; exceptions anywhere in the pipeline are caught and
    attributed to the stage that raised.

    Last, the infl lowering already built goes through the C emitter
    ({!Codegen_cpu.Cemit}): by default an emit-only structural check
    (the [Emit] stage) — toolchain-independent and cheap enough for
    shrink probes — and, when a {!Codegen_cpu.Runner.t} is supplied, a
    compile+execute differential comparing the executed C's output
    buffers bit-for-bit against {!Interp.run_original} (the [Semantics]
    stage).  Both report as {b infl} failures. *)

type stage = Convert | Schedule | Legality | Lower | Structure | Emit | Semantics | Simulate

val stage_name : stage -> string
val stage_of_name : string -> stage option

type failure = { version : Harness.Pipeline.version; stage : stage; message : string }

val pp_failure : Format.formatter -> failure -> unit

val well_formed : Codegen.Compile.compiled -> (unit, string) result
(** Structural invariants of the emitted CUDA AST: explicit vector widths
    are 2 or 4, [VecExec] only occurs under a vector strip (a tile loop
    is not one), no loop nests under a vector strip, mapping axes are
    within [x]/[y]/[z], the thread-extent product respects the
    1024-thread budget, and the dimension of a strip left unmapped is not
    block- or thread-mapped elsewhere. *)

(** A deliberate defect, for the tests that prove the oracle can say no.
    Each rewrite is given the version it is applied to:
    - [Reschedule f] rewrites each computed schedule before validation
      and lowering (the broken-scheduler canary);
    - [Relower f] rewrites each lowering before the checks (the
      broken-tiler canary rewrites only the {b tiled} version's). *)
type mutation =
  | Reschedule of (Harness.Pipeline.version -> Scheduling.Schedule.t -> Scheduling.Schedule.t)
  | Relower of
      (Harness.Pipeline.version -> Codegen.Compile.compiled -> Codegen.Compile.compiled)

val run :
  ?mutate:mutation ->
  ?cpu_exec:Codegen_cpu.Runner.t ->
  Ir.Kernel.t ->
  (unit, failure) result
(** Pushes the kernel through all four versions and the C checks.  The
    versions compile (tree, schedule, lower) in one
    {!Polyhedra.Solver_memo.scoped} scope; [mutate] and the checks run
    after each compile step, outside it.  [cpu_exec] upgrades the C check
    from emit-only (on the AVX2 profile) to an executed-C differential on
    that runner's native profile. *)

val run_case :
  ?mutate:mutation ->
  ?cpu_exec:Codegen_cpu.Runner.t ->
  Case.t ->
  (unit, failure) result
(** {!Case.to_kernel} followed by {!run}; conversion errors surface as a
    [Convert]-stage failure. *)
