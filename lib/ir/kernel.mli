(** Kernels: fused operators as ordered lists of statements over declared
    tensors.

    The original execution order (the one dependence analysis preserves) is:
    statements in list order, each statement's own loop nest iterated in
    lexicographic order of its iteration vector — the shape MindSpore's
    graph-kernel fusion hands to AKG. *)

type t = private {
  name : string;
  tensors : Tensor.t list;
  stmts : Stmt.t list;
  mutable digest_memo : string option;  (** {!digest}, once computed *)
}
(** Every extent is concrete: the paper's fused operators all have static
    shapes, so the scheduler reasons about no symbolic parameter.  Only
    {!make} builds one.  Compare kernels by name and {!digest}, not with
    [=], which also sees whether the digest has been computed yet. *)

val make : name:string -> tensors:Tensor.t list -> stmts:Stmt.t list -> unit -> t
(** Structural checks: unique tensor names, unique statement names, unique
    iterator names across statements, a domain and access indices over the
    statement's own iterators only, every access naming a declared tensor
    with matching rank, and a tensor layout (the byte sizes summed, each
    padded by 255 bytes of alignment) that fits an [int].
    @raise Invalid_argument on violation. *)

val tensor : t -> string -> Tensor.t
(** @raise Not_found on undeclared tensors. *)

val stmt : t -> string -> Stmt.t

val stmt_position : t -> string -> int
(** Position of a statement in the original order. *)

val instantiate : t -> t
(** The identity: kernels have no parameters to substitute.  It stays only
    because [perfbench/bench.ml] still calls it; once that call goes, so
    can this. *)

val validate_bounds : t -> (unit, string) result
(** Checks that every access stays within its tensor's extent for every
    point of the statement domain (by exact LP on each index). *)

val written_tensors : t -> string list
val read_tensors : t -> string list

val inputs : t -> Tensor.t list
(** Tensors read but never written: the operator's inputs. *)

val digest : t -> string
(** The kernel's identity: a hex MD5 of an injective rendering of all but
    its name — tensors and statements in order, domain constraints in
    stored order (row order decides the simplex's vertex), float
    constants by their bits.  One name and one digest compile alike.
    Computed on first use and kept in the kernel. *)

val pp : Format.formatter -> t -> unit
