(** Convenience builders for kernels.

    The zoo and the tests construct many kernels; this module keeps those
    definitions close to the pseudo-code of the paper (Fig. 2). *)

open Polyhedra

val rect : (string * int) list -> Polyhedron.t
(** [rect [("i", n); ("j", m)]] is the rectangular domain
    [0 <= i < n and 0 <= j < m]. *)

val rect_from : (string * int * int) list -> Polyhedron.t
(** Rectangular domain with explicit inclusive bounds [(iter, lo, hi)]. *)

val stmt :
  string -> iters:(string * int) list -> write:Access.t -> rhs:Expr.t -> Stmt.t
(** Statement over the rectangular domain implied by [iters] (each iterator
    ranges over [0 .. extent-1]). *)

val access : string -> string list -> Access.t
(** [access "A" ["i"; "k"]] is [A[i][k]]. *)

val access_e : string -> Linexpr.t list -> Access.t

val idx : string -> Linexpr.t
(** Iterator as an index expression. *)

val idx_plus : string -> int -> Linexpr.t

val tensor : string -> int list -> Tensor.t

val kernel : string -> tensors:Tensor.t list -> stmts:Stmt.t list -> Kernel.t
(** {!Kernel.make} plus a bounds check; @raise Invalid_argument when an
    access can leave its tensor. *)
