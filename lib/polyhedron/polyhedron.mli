(** Convex rational polyhedra described by affine constraints over named
    variables.  This is the workhorse set abstraction: iteration domains,
    dependence relations and scheduling solution spaces are all values of
    this type. *)

open Polybase

type t

val of_constraints : Constr.t list -> t
val constraints : t -> Constr.t list
val add_constraint : t -> Constr.t -> t

val add_constraints : t -> Constr.t list -> t
(** [add_constraints p cs] is [List.fold_left add_constraint p cs] with one
    simplification over the union instead of one per constraint. *)

val inter : t -> t -> t
val vars : t -> string list

val is_empty : t -> bool
(** Emptiness over the rationals (exact for the integer sets this repository
    builds, conservative in general). *)

val sample : t -> (string -> Q.t) option

val project_out : string list -> t -> t

val rename : (string -> string) -> t -> t

val minimum : t -> Linexpr.t -> [ `Empty | `Unbounded | `Value of Q.t ]
(** Exact rational optimum of an affine objective.  When the objective
    has one variable and every constraint mentions exactly one variable
    (a box, such as an iteration domain with constant bounds) the answer
    is read off the tightest bounds without an LP; it is the one the
    simplex gives: [`Empty] when any variable's box is empty,
    [`Unbounded] when the objective's side has no bound. *)

val maximum : t -> Linexpr.t -> [ `Empty | `Unbounded | `Value of Q.t ]
(** As {!minimum}, maximizing. *)

val mem : (string -> Q.t) -> t -> bool
(** Whether a point satisfies all constraints. *)

val nonneg_on : t -> Linexpr.t -> bool
(** [nonneg_on p e] — whether [e >= 0] holds at every point of [p]
    (vacuously true when [p] is empty).  Constant expressions are decided
    syntactically; otherwise the answer is one LP minimization over [p]'s
    constraints.  Unlike {!Farkas}-based encodings this never builds a
    coefficient tableau, which is what makes it cheap enough for the
    scheduler's sub-ILP fast path to call per dependence and per
    candidate. *)

val nonpos_on : t -> Linexpr.t -> bool
(** [nonpos_on p e] is [nonneg_on p (-e)]. *)

val zero_on : t -> Linexpr.t -> bool
(** [zero_on p e] — whether [e = 0] at every point of [p] (vacuously true
    on the empty set).  At most two LPs; zero for constant [e]. *)

val equal_syntactic : t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
