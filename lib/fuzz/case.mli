(** Shrink-friendly structural kernels.

    The fuzzer manipulates kernels through this first-order
    representation — rectangular domains, one affine term per tensor
    index — rather than through {!Ir.Kernel.t} directly, because every
    shrinking step (drop a statement, halve an extent, zero a dimension)
    is a trivial record edit here, and because it serializes to the JSON
    replay files a failing case is persisted as. *)

type index = { coef : int; iter : string option; offset : int }
(** One tensor-dimension subscript: [coef * iter + offset] ([offset]
    alone when [iter] is [None]). *)

type access = { tensor : string; index : index list }

type expr =
  | Const of float
  | Load of access
  | Unop of Ir.Expr.unop * expr
  | Binop of Ir.Expr.binop * expr * expr

type stmt = {
  sname : string;
  iters : (string * int) list;  (** iterator and extent, outermost first *)
  write : access;
  rhs : expr;
}

type t = {
  name : string;
  tensors : (string * int list) list;
  stmts : stmt list;
}

val equal : t -> t -> bool
(** Structural equality ([-0.] and [0.] constants compare equal). *)

val loads : expr -> access list

val accesses : stmt -> access list
(** Write first, then the loads. *)

val used_tensors : t -> string list
(** Tensors referenced by at least one access, in declaration order. *)

val prune_tensors : t -> t
(** Drops tensor declarations no remaining statement references. *)

val tighten_tensors : t -> t
(** Shrinks every tensor dimension to the tightest extent covering all
    accesses (at least 1) — the last cosmetic step of shrinking. *)

val to_kernel : t -> (Ir.Kernel.t, string) result
(** Builds the checked IR kernel; [Error] carries a non-positive
    iterator extent (rejected like {!Ir.Tensor.make} rejects a
    non-positive dim) or the structural or bounds violation that
    {!Ir.Build.kernel} rejected. *)

val to_json : t -> Obs.Json.t
val of_json : Obs.Json.t -> (t, string) result
(** Round-trips with {!to_json}. *)

val pp : Format.formatter -> t -> unit
(** Compact one-kernel summary: statement count, ranks, extents. *)
