(** End-to-end lowering: schedule -> marked, mapped, optionally vectorized
    AST — the backend part of AKG's flow after polyhedral scheduling. *)

type compiled = {
  kernel : Ir.Kernel.t;
  schedule : Scheduling.Schedule.t;
  ast : Ast.t;
  mapping : Mapping.t;
}

val lower :
  ?vectorize:bool -> ?vec_min_parallel:int -> Scheduling.Schedule.t -> Ir.Kernel.t ->
  compiled
(** Pipeline: AST generation, per-loop parallelism refinement, explicit
    vectorization (when [vectorize], honouring the schedule's
    {!Scheduling.Schedule.Vector} annotations), tiling of permutable bands
    at the shape of the schedule's {!Scheduling.Schedule.Tile_sizes}
    annotation ({!Tiling.sizes_of_schedule}; only the tiling influence
    client injects one), block/thread mapping (which never considers
    vectorized dimensions).  The kernel's
    dependences ({!Deps.Analysis.dependences}) are looked up once and
    shared by the marking, vectorization and tiling passes. *)
