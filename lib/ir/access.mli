(** Affine tensor accesses: a tensor name plus one affine index expression
    per tensor dimension, over statement iterators. *)

open Polyhedra

type t = { tensor : string; index : Linexpr.t list }

val make : string -> Linexpr.t list -> t

val of_iters : string -> string list -> t
(** [of_iters "A" ["i"; "k"]] is the access [A[i][k]]. *)

val rank : t -> int

val vars : t -> string list
(** Iterators mentioned by the index expressions, sorted. *)

val rename : (string -> string) -> t -> t

val eval : (string -> Polybase.Q.t) -> t -> int list
(** Concrete indices for an iteration point.
    @raise Failure if an index is not an integer. *)

val linear_offset : Tensor.t -> t -> Linexpr.t
(** The affine row-major element offset of the access into the tensor.
    @raise Invalid_argument on rank mismatch. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
