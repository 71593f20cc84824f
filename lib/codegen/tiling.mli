(** Tiling of permutable bands.

    The scheduler exposes permutable bands precisely so that a "subsequent
    tiling transformation" can partition them (Sections II and IV-A3); this
    pass performs that transformation on the generated AST: a chain of
    directly nested loops whose dimensions form a permutable band is
    rewritten into tile loops (stepping by the tile size) hoisted above the
    point loops.  Point loops get bounds [tile_var <= v <= min(upper,
    tile_var + size - 1)] and carry a constant trip-count hint so the
    mapping pass can still put them on threads.

    Legality: hoisting tile loops above inner point loops is an interchange
    and is only applied when the band is permutable — checked directly
    against the dependences (every dependence has a non-negative schedule
    difference on each band dimension, given equal outer dimensions). *)

val band_permutable :
  Scheduling.Schedule.t -> Ir.Kernel.t -> Deps.Dependence.t list ->
  dims:int list -> stmts:string list -> bool
(** Whether the given schedule dimensions form a permutable band for the
    statements (non-negative difference on every dimension for every
    dependence among them, in the context of equal outer dimensions). *)

val apply :
  sizes:(int -> int option) -> Scheduling.Schedule.t -> Ir.Kernel.t ->
  Deps.Dependence.t list -> Ast.t -> Ast.t
(** Tiles every maximal chain of directly-nested plain loops forming a
    permutable band (checked against the kernel's dependences).  [sizes
    dim] gives the tile size for a schedule dimension ([None] or sizes
    <= 1 leave the dimension untiled).  Chains with no tiled dimension are
    left untouched. *)

val sizes_of_schedule : Scheduling.Schedule.t -> (int -> int option) option
(** The [sizes] {!apply} takes, from the schedule's
    {!Scheduling.Schedule.Tile_sizes} annotation: loop ordinals are
    translated to schedule row indices (skipping scalar rows).  [None]
    when the schedule carries no tile shape, or none of its ordinals names
    a loop row. *)

val tile_all :
  size:int -> Scheduling.Schedule.t -> Ir.Kernel.t -> Deps.Dependence.t list ->
  Ast.t -> Ast.t
(** [apply] with the same size for every dimension. *)

val applied : Ast.t -> bool
(** Whether the AST contains tile loops — how callers report a schedule
    as actually tiled. *)
