(** Statements: one store to an affine location, computed from affine loads,
    executed for every integer point of an iteration domain.

    Iterator names must be globally unique across a kernel (the dependence
    analyzer and the scheduler put iterators of several statements in one
    constraint space). *)

open Polyhedra

type t = {
  name : string;
  iters : string list;  (** iteration vector, outermost first *)
  domain : Polyhedron.t;  (** over [iters] only *)
  write : Access.t;
  rhs : Expr.t;
}

val make :
  name:string -> iters:string list -> domain:Polyhedron.t -> write:Access.t ->
  rhs:Expr.t -> t

val dim : t -> int

val reads : t -> Access.t list
(** Load accesses of the right-hand side (duplicates preserved). *)

val accesses : t -> (Access.t * [ `Read | `Write ]) list
(** The write access first, then the reads. *)

val extent : t -> string -> int
(** Number of integer values an iterator takes in the domain.
    @raise Failure if the iterator is unbounded in the domain. *)

val iter_bounds : t -> string -> int * int
(** Inclusive integer (min, max) of an iterator over the domain.
    @raise Failure if unbounded. *)

val pp : Format.formatter -> t -> unit
