(** Fourier-Motzkin elimination of variables from affine constraint systems.

    Used to project polyhedra (loop-bound computation in code generation) and
    to eliminate Farkas multipliers from scheduling constraints, exactly as
    Pluto does.  Inside {!Solver_memo.scoped}, {!simplify} and
    {!eliminate_all} answer a repeated input (the same lists, in the same
    order) from the scope's table, a raised {!Contradiction} included. *)

val eliminate_all : string list -> Constr.t list -> Constr.t list
(** [eliminate_all xs cs] is a system over the remaining variables whose
    solution set is the projection of [cs] along [xs] (over the
    rationals), eliminating one variable at a time in order.  Equalities
    involving a variable are used as substitutions when possible. *)

val simplify : Constr.t list -> Constr.t list
(** Removes trivially-true and syntactically duplicate constraints (after
    normalization).  @raise Contradiction if a trivially false constraint is
    present. *)

exception Contradiction
