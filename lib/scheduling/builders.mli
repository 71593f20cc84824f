(** Constraint builders for the influenced scheduling construction
    (Section IV-A): validity, coincidence, reuse-distance (proximity)
    bounds, progression, coefficient bounds and objective functions.

    All constraints are expressed over the {!Space} coefficient variables
    of one scheduling dimension; the scheduler assembles and solves them. *)

open Polybase
open Polyhedra
open Deps

(** Scheduling state of one dependence relation.

    [band_rel] is the relation used for validity within the current
    permutable band (snapshot at the band start); [active_rel] shrinks as
    dimensions are committed (intersection with zero-distance) and the
    dependence is strongly satisfied exactly when it becomes empty.
    [retired] marks dependences dropped from constraint construction at a
    band boundary. *)
type dep_state = {
  dep : Dependence.t;
  tgt_orig_iters : string list;
  mutable band_rel : Polyhedron.t;
  mutable active_rel : Polyhedron.t;
  mutable retired : bool;
}

val init_dep_state : Ir.Kernel.t -> Dependence.t -> dep_state

val delta_concrete :
  dep_state -> src_expr:Linexpr.t -> tgt_expr:Linexpr.t -> Linexpr.t
(** The schedule difference for already-fixed schedule rows, as an affine
    expression over the relation's variables. *)

type nonneg_on =
  coef_of:(string -> Linexpr.t) -> const:Linexpr.t -> Polyhedron.t -> Constr.t list
(** The Farkas linearization the three dependence builders below apply:
    {!Farkas.nonneg_on} or, in the scheduler, a memoized one
    ({!Scheduler.nonneg_on}). *)

val validity : nonneg_on:nonneg_on -> dim:int -> dep_state -> Constr.t list
(** Equation 1 (weak satisfaction, [delta >= 0]) over [band_rel]. *)

val coincidence : nonneg_on:nonneg_on -> dim:int -> dep_state -> Constr.t list
(** Zero reuse distance ([delta = 0]) over [active_rel] — the
    space-partition constraint of Lim and Lam.  Like {!proximity}, only
    meaningful for an unsatisfied dependence ([active_rel] not empty):
    the scheduler tracks satisfaction itself and asks for no others, so
    no emptiness LP is repeated here. *)

val proximity : nonneg_on:nonneg_on -> dim:int -> dep_state -> Constr.t list
(** Equation 2 with concrete extents: [delta <= w] over [active_rel]. *)

val progression :
  ?negate:bool -> dim:int -> stmt:Ir.Stmt.t -> prev_iter_rows:Q.t array array ->
  unit -> Constr.t list option
(** Equations 3 and 4.  [None] when the statement's schedule is already
    full-rank (no further constraint: the row may be trivial).  The
    orthogonal-subspace basis orientation is arbitrary and equation 4 keeps
    only its non-negative cone; [negate] flips the basis, the scheduler's
    last resort when the default cone excludes every valid row (the
    over-constraining the paper acknowledges in Section IV-A3). *)

val coef_bound : int
(** Upper bound (4) on every iterator coefficient. *)

val const_bound : int
(** Upper bound (4) on every constant coefficient. *)

val var_bounds : dim:int -> stmts:Ir.Stmt.t list -> Constr.t list
(** Each coefficient in [0, {!coef_bound}] (constants in
    [0, {!const_bound}]) and the proximity bound [w] non-negative. *)

val objectives : dim:int -> stmts:Ir.Stmt.t list -> Linexpr.t list
(** The three lexicographic objectives: isl's proximity cost [w]
    (equation 2 footnote; with concrete extents there is no [u . p] term),
    then the sum of constant coefficients, then a position-weighted
    iterator-coefficient sum whose effect is to prefer the original loop
    order among otherwise equivalent solutions (the documented tendency of
    isl this work compares against). *)

val ilp_vars : dim:int -> stmts:Ir.Stmt.t list -> string list
(** The coefficient variables of one dimension (the integer variables of
    the per-dimension ILP). *)
