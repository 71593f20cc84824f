(** Exact rational linear programming.

    Two-phase primal simplex over {!Polybase.Q}, so there is no rounding.
    The entering rule is Dantzig's (most negative reduced cost) and falls
    back to Bland's after a streak of degenerate pivots, which keeps the
    anti-cycling guarantee without Bland's pivot counts on non-degenerate
    problems.  Phase 1 starts from the slack basis: only equalities and
    inequalities the origin violates get an artificial column.  Variables
    are free (internally split into positive and negative parts);
    constraints are {!Constr.t} lists.

    Tableau rows are sparse and immutable: the sorted columns of a row's
    nonzero entries, their values, and its right-hand side held apart.  A
    pivot touches only the nonzeros of the rows with an entry in the pivot
    column and replaces those rows; every other row is kept as it is.

    Besides the one-shot entry points, {!Tableau} exposes the solver
    incrementally: build a feasible tableau once, then install successive
    objectives and push extra rows with dual-simplex re-optimization — the
    warm-start primitive used by {!Ilp}. *)

open Polybase

type result =
  | Infeasible
  | Unbounded
  | Optimal of Q.t * (string -> Q.t)
      (** Optimal objective value and an optimal assignment.  The assignment
          function returns zero for variables unconstrained by the problem. *)

val minimize : Constr.t list -> Linexpr.t -> result
(** Inside {!Solver_memo.scoped}, an LP the scope already solved (the same
    constraints in the same order and the same objective) is answered from
    its table; so are {!maximize}, {!feasible_point} and {!is_feasible},
    which go through [minimize].  The {!Tableau} path is never memoized. *)

val maximize : Constr.t list -> Linexpr.t -> result

val feasible_point : Constr.t list -> (string -> Q.t) option
(** Some satisfying assignment, if the constraint system is satisfiable over
    the rationals. *)

val is_feasible : Constr.t list -> bool

(** Incremental interface over a phase-1-feasible tableau. *)
module Tableau : sig
  type t

  val of_constraints : ?extra_exprs:Linexpr.t list -> Constr.t list -> t option
  (** Run phase 1 once over [constraints]; [None] if infeasible.  An
      infeasible system is caught by a slack-started phase 1 first; a
      feasible one then gets Bland's rule from an all-artificial basis, so
      its starting vertex does not depend on that screen.  Variables
      appearing only in [extra_exprs] (later objectives or pushed rows) get
      columns too — {!set_objective}/{!with_le} reject unknown variables. *)

  val set_objective : t -> Linexpr.t -> [ `Optimal | `Unbounded ]
  (** Install an objective and re-optimize in place with the primal simplex
      (the tableau stays primal-feasible across {!with_le}, so no fresh
      phase 1 is needed). *)

  val value : t -> Q.t
  (** Objective value at the current basis. *)

  val assignment : t -> string -> Q.t
  (** Variable values at the current basis (zero for unknown variables). *)

  val with_le : t -> Linexpr.t -> t option
  (** [with_le t e] is a copy of [t] extended with the row [e <= 0],
      re-optimized for the current objective with the dual simplex; [None]
      if the extended system is infeasible.  The copy shares every row it
      does not change with [t], and [t] itself is unchanged. *)

  val with_ge : t -> Linexpr.t -> t option
end
