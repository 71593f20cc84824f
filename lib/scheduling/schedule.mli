(** Computed multidimensional affine schedules.

    A schedule assigns every statement a list of affine expressions over its
    iterators (one per scheduling dimension, outermost first): the logical
    date of Section III-B.  Rows also carry the properties codegen needs
    (coincidence for parallel marking, scalar rows for statement
    interleaving) and the annotations deposited by the influence tree's
    leaf (vectorization preparation). *)

open Polyhedra

type dim_kind =
  | Loop of { coincident : bool }
      (** a real loop dimension; [coincident] means no active dependence is
          carried: the loop can be marked parallel *)
  | Scalar  (** statement interleaving inserted by SCC separation *)

type row = {
  kind : dim_kind;
  exprs : (string * Linexpr.t) list;
      (** per-statement scheduling expression over that statement's
          iterators *)
}

type t = {
  kernel_name : string;
  stmt_names : string list;
  rows : row list;  (** outermost first *)
  annotations : (string * string) list;
}

val dims : t -> int

val expr_for : t -> dim:int -> stmt:string -> Linexpr.t
(** @raise Not_found if the statement is unknown. *)

val annotation : t -> string -> string option

val pp : Format.formatter -> t -> unit
val to_string : t -> string
