(** Kernels: fused operators as ordered lists of statements over declared
    tensors.

    The original execution order (the one dependence analysis preserves) is:
    statements in list order, each statement's own loop nest iterated in
    lexicographic order of its iteration vector — the shape MindSpore's
    graph-kernel fusion hands to AKG. *)

type t = {
  name : string;
  tensors : Tensor.t list;
  stmts : Stmt.t list;
  params : (string * int) list;
      (** global parameters (Section III's [p] vector): symbolic sizes the
          scheduler reasons about, each with the concrete value used for
          execution and simulation *)
}

val make :
  ?params:(string * int) list -> name:string -> tensors:Tensor.t list ->
  stmts:Stmt.t list -> unit -> t
(** Structural checks: unique tensor names, unique statement names, unique
    iterator names across statements, every access naming a declared tensor
    with matching rank, and a tensor layout (the byte sizes summed, each
    padded by 255 bytes of alignment) that fits an [int].
    @raise Invalid_argument on violation. *)

val tensor : t -> string -> Tensor.t
(** @raise Not_found on undeclared tensors. *)

val stmt : t -> string -> Stmt.t

val stmt_position : t -> string -> int
(** Position of a statement in the original order. *)

val param_names : t -> string list

val param_context : t -> Polyhedra.Constr.t list
(** The assumptions dependence analysis and legality checks may make about
    parameters: every parameter is at least 1. *)

val instantiate : t -> t
(** Substitutes the concrete parameter values into all domains and
    accesses, yielding a parameter-free kernel. *)

val validate_bounds : t -> (unit, string) result
(** Checks that every access stays within its tensor's extent for every
    point of the statement domain (by exact LP on each index). *)

val written_tensors : t -> string list
val read_tensors : t -> string list

val inputs : t -> Tensor.t list
(** Tensors read but never written: the operator's inputs. *)

val outputs : t -> Tensor.t list
(** Tensors written: the operator's outputs (intermediate or final). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
