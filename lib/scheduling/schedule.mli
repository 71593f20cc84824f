(** Computed multidimensional affine schedules.

    A schedule assigns every statement a list of affine expressions over its
    iterators (one per scheduling dimension, outermost first): the logical
    date of Section III-B.  Rows also carry the properties codegen needs
    (coincidence for parallel marking, scalar rows for statement
    interleaving) and the annotations deposited by the influence tree's
    leaf: the information the non-linear clients pass to the backend
    (Section IV-A4; Section V's vectorization preparation). *)

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

(** What an influence-tree leaf tells the backend.  {!pp} renders each
    as [key=value] text. *)
type annotation =
  | Branch of string
      (** the label of the accepted branch: [influence_branch=LABEL] *)
  | Vector of { stmt : string; iter : string; width : int }
      (** [stmt]'s row that is exactly [iter] was prepared for [width]-wide
          explicit vectors ({!Codegen.Vectorpass}):
          [vec#STMT=ITER:WIDTH] *)
  | Tile_sizes of (int * int) list
      (** [(ordinal, size)] tile shape keyed by {e loop} ordinal (scalar
          rows excluded, outermost first), read by the backend tiling pass
          ({!Codegen.Tiling.sizes_of_schedule}):
          [tile_sizes=ORD:SIZE,ORD:SIZE] *)

type t = {
  kernel_name : string;
  stmt_names : string list;
  rows : row list;  (** outermost first *)
  annotations : annotation list;  (** in the order the leaf listed them *)
}

val dims : t -> int

val expr_for : t -> dim:int -> stmt:string -> Linexpr.t
(** @raise Not_found if the statement is unknown. *)

val sizes_to_string : (int * int) list -> string
(** [ORD:SIZE,ORD:SIZE], the text of a {!Tile_sizes} annotation. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
