(** Backend explicit-vectorization pass (the second AKG modification of
    Section V).

    Rewrites loops that the influence tree prepared (the schedule's
    {!Scheduling.Schedule.Vector} annotations) into strided loops whose
    statement instances execute [width] lanes per step with explicit
    vector loads/stores.  A loop is rewritten only when it is safe and
    profitable:

    - every unguarded statement under the loop carries a vectorization
      annotation for this dimension;
    - multi-statement loops must not carry a dependence at this dimension
      (single-statement loops may: lanes execute in order);
    - guards on the loop variable must be equalities pinning a
      lane-0-aligned value (such statements stay scalar);
    - the loop is plain (not a tile loop or a strip), has constant bounds
      and an extent divisible by the chosen width (the minimum across
      statements).

    The rewritten loop gets kind [Vector width] and keeps the mark
    {!Marks.refine} gave it, so a [Parallel] strip may be mapped to
    threads. *)

val apply :
  ?min_parallel:int -> Scheduling.Schedule.t -> Ir.Kernel.t ->
  Deps.Dependence.t list -> Ast.t -> Ast.t
(** [apply sched kernel deps ast], with [deps] the kernel's dependences.
    [min_parallel] (default 0 = always) refuses rewrites that would leave
    fewer than that many parallel iterations to map on threads. *)
