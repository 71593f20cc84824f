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
    kernel, and a repeat on that kernel or on any kernel of its
    {!Ir.Kernel.digest} (dependences never name the kernel) counts
    [deps.memo_hits]. *)

(** {1 One analysis shared between scopes} *)

type analysis
(** A kernel's dependences, as {!dependences} computed them.  Only
    {!analyse} makes one. *)

val analyse : Ir.Kernel.t -> analysis
(** [analyse k] runs {!dependences} on [k] (inside a scope, it is
    remembered there as usual). *)

val deps : analysis -> Dependence.t list

val install : analysis -> unit
(** Puts the analysis into the current {!Polyhedra.Solver_memo} scope
    under its kernel, so a later {!dependences} in the scope on any kernel
    of its digest is a memo hit; outside a scope it does nothing.  The
    answer is exact: it is what {!dependences} computes for every such
    kernel. *)

val pp_all : Format.formatter -> Dependence.t list -> unit
