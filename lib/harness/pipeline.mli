(** The one compilation pipeline and its version table.

    Each stage is its own function — {!tree} → {!schedule} → {!lower} →
    {!simulate} or {!emit_c} (then {!execute}) — and {!run} composes them
    for one version of an {!operator}, which decides what the versions
    share.  Table II evaluation, the compile service and the CLI compile
    through {!run}.  The fuzzer ([Fuzz.Check]) calls the stages one by
    one, so that it can check each stage's result, and, in its tests,
    rewrite a schedule or a lowering between them.  The stages take no
    fuzzer-only argument, so one (operator, version, machine) gives one
    schedule, one AST and one time or C source whichever way it is asked
    for.

    A version is a schedule and its lowering; the machine profile picks
    the backend.  Any version is simulated on a GPU profile and emitted
    as C on a CPU profile. *)

type version = Isl | Novec | Infl | Tiled

type client =
  | No_influence  (** the uninfluenced baseline scheduler *)
  | Vectorizer  (** {!Vectorizer.Treegen.influence_for} *)
  | Tiling  (** {!Scheduling.Tiling.influence_for} *)

type spec = {
  name : string;  (** the version's name in requests, records and reports *)
  client : client;
  vector_pass : int option;
      (** [Some threshold]: run the explicit vectorization pass with that
          [min_parallel] ({!Codegen.Vectorpass.apply}); [None]: skip it *)
}

val spec : version -> spec
(** The version table: [isl] (no influence), [novec] (vectorizer tree),
    [infl] (vectorizer tree, vector pass at threshold 2048) and [tiled]
    (tiling tree). *)

val versions : version list
(** Every version, in table order. *)

val name : version -> string
val of_name : string -> version option
(** The four version names; ["cpu"] is not one (see {!resolve}). *)

val cpu_name : string
(** ["cpu"]: accepted wherever a request, a CLI flag or a replay file
    names a version, meaning {b infl} emitted as C (see {!resolve}). *)

val names : string list
(** Every name {!resolve} accepts: the versions in table order, then
    {!cpu_name}. *)

val cpu_machine : Gpusim.Machine.t -> Gpusim.Machine.t
(** The profile C is emitted for under {!cpu_name}: the machine itself
    when it is a CPU profile, the portable scalar profile otherwise. *)

val resolve : string -> machine:Gpusim.Machine.t -> (version * Gpusim.Machine.t) option
(** A version name with the requested machine, as the pipeline runs it:
    a version's own name keeps [machine]; {!cpu_name} is {b infl} on
    [cpu_machine machine].  [None] for an unknown name. *)

(** {1 Stages} *)

val tree : version -> Ir.Kernel.t -> Scheduling.Influence.t option
(** Stage 1: the version's influence tree ([None] for {b isl}) at the
    paper's weights and branch order, and the tiling client's
    {!Scheduling.Tiling.default_model} tile shapes. *)

val schedule :
  ?influence:Scheduling.Influence.t ->
  Ir.Kernel.t ->
  Scheduling.Schedule.t * Scheduling.Scheduler.stats
(** Stage 2: one scheduler run under the default config.  Its time is
    the [scheduler.schedule] span.  Inside a
    {!Polyhedra.Solver_memo.scoped} scope, a solve an earlier run of the
    scope already did is looked up, and its nodes stay attributed to that
    run. *)

val lower :
  ?vec_min_parallel:int ->
  version ->
  Scheduling.Schedule.t ->
  Ir.Kernel.t ->
  Codegen.Compile.compiled
(** Stage 3: {!Codegen.Compile.lower} with the version's settings.
    [vec_min_parallel] overrides the table's threshold (the fuzzer and the
    Fig. 2 walkthrough pass 0 to exercise the vector pass on tiny
    kernels) on a version that runs the vector pass.  Tile sizes come
    only from the schedule's {!Scheduling.Schedule.Tile_sizes}
    annotation. *)

val simulate : ?machine:Gpusim.Machine.t -> Codegen.Compile.compiled -> Gpusim.Sim.report
(** Stage 4 on a GPU profile: the performance model, V100 by default.
    Inside a scope, a kernel an earlier call of the scope already
    simulated is looked up; the report is unchanged. *)

val emit_c : machine:Gpusim.Machine.t -> Codegen.Compile.compiled -> string
(** Stage 4 on a CPU profile: the C source. *)

val memory_to_buffers : Ir.Kernel.t -> Interp.memory -> float array array
(** Tensor contents flattened row-major, in [kernel.tensors] order — the
    input layout {!Codegen_cpu.Runner.execute} expects. *)

val interpret : Ir.Kernel.t -> Codegen.Compile.compiled -> (unit, float) result
(** Semantics check of a lowering: {!Interp.run_ast} over the AST against
    {!Interp.run_original}, both on the same randomized inputs.  [Error d]
    carries the maximum absolute difference. *)

val execute :
  ?reps:int ->
  ?seed:int ->
  ?check:bool ->
  Codegen_cpu.Runner.t ->
  Codegen_cpu.Runner.built ->
  Ir.Kernel.t ->
  (float * (unit, float) result option, Codegen_cpu.Runner.error) result
(** Stage 5 (C only): run a built kernel [reps] times on randomized inputs
    and return the best wall-clock seconds.  With [check] (the default)
    the output buffers are also compared bit-for-bit against
    {!Interp.run_original}, with the verdict of {!interpret}. *)

(** {1 The composed pipeline} *)

type backend_output =
  | Simulated of Gpusim.Sim.report  (** on a GPU profile *)
  | Emitted of string  (** the C source, on a CPU profile *)

type output = {
  sched : Scheduling.Schedule.t;
  stats : Scheduling.Scheduler.stats;
  compiled : Codegen.Compile.compiled;
  backend : backend_output;
  deps : Deps.Dependence.t list;  (** the kernel's dependences, as the run analysed them *)
}

type operator
(** One kernel and the work its versions share, each part computed on
    first use by {!run} and kept for the next:
    - its dependence analysis ({!Deps.Analysis.analyse}), installed as
      it is into every scope {!run} opens for it (dependences never name
      the kernel), so the kernel is analysed once however many versions,
      machines and names are asked for;
    - one schedule per {!client}, with its statistics: novec and infl (and
      so [cpu]) take the {!Vectorizer} client's, and differ only in the
      backend's vector pass, and every machine takes the same one.  A
      version that takes a kept schedule counts
      [pipeline.schedule_reuses]; its run has no scheduler spans;
    - one lowering ({!Codegen.Compile.compiled}) per version, which every
      machine takes: [cpu] takes infl's;
    - one simulation report per version and GPU machine profile, the
      profiles compared by value.

    C is not kept: it is emitted on every CPU run, from the kept lowering,
    as emission is the one stage that prints the kernel's name.

    {!share} gives an operator over another kernel of the same
    {!Ir.Kernel.digest} that shares all of this work, so each distinct
    kernel is compiled once however many names it has.

    A run that raises ({!Scheduling.Scheduler.Failure_no_schedule}) keeps
    no part it did not finish, so a transient failure is never replayed.
    The kept statistics are a copy, and every run returns its own copy.
    An operator may be shared between domains: a race on a part computes
    it twice, equally. *)

val operator : Ir.Kernel.t -> operator
(** A fresh operator: nothing computed yet. *)

val share : operator -> Ir.Kernel.t -> operator
(** [share op k]: an operator over [k] that shares [op]'s work, kept and
    to come, with [op] and with every operator shared from it.  [k] must
    have [op]'s digest; its name may differ.  A run of the shared operator
    reads as a run of a fresh [operator k]: the schedule's [kernel_name],
    the lowering's [kernel] and the emitted C are [k]'s.
    @raise Invalid_argument when the digests differ. *)

val kernel : operator -> Ir.Kernel.t

val run :
  ?machine:Gpusim.Machine.t ->
  version ->
  operator ->
  output
(** {!tree}, {!schedule}, {!lower} and the machine's backend in one
    call: {!simulate} when [machine] (default V100) is a GPU profile,
    {!emit_c} when it is a CPU profile.  The stages run in the caller's
    {!Polyhedra.Solver_memo} scope, or in a fresh one when none is open
    ({!Polyhedra.Solver_memo.shared}), with the operator's dependence
    analysis installed (or run and kept), which the output carries.  Each
    stage takes the operator's kept part when an earlier run kept one.
    The output is the same whether the operator is fresh, reused or
    shared, in whatever scope it runs. *)
