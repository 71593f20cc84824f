(** Per-loop parallelism refinement.

    The schedule's per-dimension coincidence flag is computed jointly over
    all statements; after code generation a loop may enclose only a subset
    of statements (statement interleaving splits nests) and be parallel for
    that subset even when the dimension was not globally coincident.  This
    pass recomputes the mark per [For] node from the dependences among the
    statements it actually encloses. *)

val refine :
  Scheduling.Schedule.t -> Ir.Kernel.t -> Deps.Dependence.t list -> Ast.t -> Ast.t
(** [refine sched kernel deps ast] re-marks every [For] node; [deps] are
    the kernel's dependences ({!Deps.Analysis.dependences}).  The vector
    pass runs after it and reads the [Parallel] mark as "the strip may be
    mapped to threads". *)

val dep_carried :
  Scheduling.Schedule.t -> Ir.Kernel.t -> Deps.Dependence.t -> dim:int -> bool
(** Whether a dependence relates instances with equal schedule prefixes but
    a strictly positive difference at [dim]. *)
