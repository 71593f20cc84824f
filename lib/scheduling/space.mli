(** Naming of scheduling-coefficient variables.

    The scheduler searches for the entries of each statement's
    transformation matrix [T_S] (Section III-B).  Every entry is an ILP
    variable; this module fixes the naming scheme so that constraint
    builders, influence trees (which are constructed by a separate
    non-linear optimizer) and the scheduler itself all agree on which
    variable denotes which coefficient. *)

type coeff =
  | Iter of string  (** coefficient of a statement iterator *)
  | Const  (** the constant (affine) part *)

val coef_var : stmt:string -> dim:int -> coeff -> string
(** The ILP variable holding coefficient [coeff] of scheduling dimension
    [dim] for statement [stmt]. *)

val bound_w : string
(** The [w] variable of the proximity bound (equation 2, whose [u . p]
    term vanishes with concrete extents). *)

val parse_coef_var : string -> (string * int * coeff) option
(** Inverse of {!coef_var}, for pretty-printing solver output. *)
