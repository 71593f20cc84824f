(** CUDA block/thread mapping.

    Selects which (parallel, constant-bound) schedule dimensions become
    [blockIdx] and [threadIdx] axes and stamps the marks into the AST.
    Following the paper's first AKG modification, the lanes of a vector
    strip are never split across threads: a parallel strip is mapped whole,
    one vector operation per thread, and a sequential one not at all. *)

type t = {
  block_dims : (int * int) list;  (** (schedule dim, extent), outermost first *)
  thread_dims : (int * int) list;
      (** (schedule dim, extent); the first entry is threadIdx.x, the
          fastest-varying lane axis that memory coalescing depends on *)
}

val grid_blocks : t -> int
val block_threads : t -> int

val thread_extent_of : t -> int -> int option
(** Thread-extent of a schedule dim (present for thread and strip-mined
    dims). *)

val compute : Ast.t -> t
(** Policy: the innermost eligible parallel loops become thread axes while
    the extent product stays within 1024 threads (at most 3 axes); a dim
    overflowing the remaining budget is strip-mined across a (block,
    thread) pair; remaining outer parallel loops become block axes. *)

val apply : t -> Ast.t -> Ast.t
(** Stamps [Block]/[Thread] marks onto the corresponding [For] nodes. *)

val pp : Format.formatter -> t -> unit
