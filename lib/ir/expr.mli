(** Scalar expression language for statement right-hand sides.

    Only the memory accesses are visible to the polyhedral machinery; the
    arithmetic structure matters to the interpreter (semantics validation)
    and to the GPU simulator (compute cost estimation). *)

type binop = Add | Sub | Mul | Div | Min | Max

type unop = Neg | Abs | Exp | Log | Sqrt | Rsqrt | Relu | Tanh | Sigmoid

type t =
  | Const of float
  | Load of Access.t
  | Binop of binop * t * t
  | Unop of unop * t

val load : Access.t -> t
val const : float -> t

(** Infix constructors, intended for local [open Expr.Infix]. *)
module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
end

val loads : t -> Access.t list
(** All load accesses, left-to-right, with duplicates preserved. *)

val map_accesses : (Access.t -> Access.t) -> t -> t

val op_count : t -> int
(** Number of arithmetic operations (unops and binops). *)

val eval : (Access.t -> float) -> t -> float
(** Evaluates with the given load semantics. *)

val binop_symbol : binop -> string
val unop_name : unop -> string
(** The operators' names as {!pp} prints them. *)

val pp : Format.formatter -> t -> unit
