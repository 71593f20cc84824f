(** Exact dependence analysis over kernels.

    For every ordered pair of accesses to the same tensor with at least one
    write, the analyzer builds the dependence polyhedron of Section IV-A1 —
    both executions in their domains, equal indices, source preceding
    target in the original order — and keeps the non-empty ones. *)

val dependences : Ir.Kernel.t -> Dependence.t list
(** Original-order precedence: statement list order between different
    statements, lexicographic iteration order within one statement.  Every
    result constrains legality; read-read pairs are not dependences.
    Inside a {!Polyhedra.Solver_memo} scope the result is remembered per
    kernel (compared physically) and a repeat counts [deps.memo_hits]. *)

val pp_all : Format.formatter -> Dependence.t list -> unit
