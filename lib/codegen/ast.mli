(** Loop AST for generated device code.

    Loop bounds are affine expressions of enclosing loop variables (named
    [t0], [t1], ... after the schedule dimensions); several candidate bounds
    mean max-of (lower) / min-of (upper), with ceiling/floor semantics for
    rational coefficients.  Statement instances appear as [Exec] nodes whose
    [iter_map] rebinds the statement's original iterators to expressions
    over loop variables (the inverted schedule).

    When a schedule row is non-unimodular (e.g. [2*i]), the inverted
    [iter_map] has rational coefficients and the statement's instances form
    a proper sublattice of the enclosing loops: an instance exists only at
    loop points where every [iter_map] entry evaluates to an integer.
    Consumers must honour this — {!Interp.run_ast} skips off-lattice
    points and {!Cuda.emit} synthesizes a [%]-divisibility guard with
    exact integer division. *)

open Polyhedra

type mark =
  | Seq_mark  (** ordinary sequential loop *)
  | Parallel  (** no dependence carried: may be mapped *)
  | Block of int  (** mapped to CUDA blockIdx.{x,y,z} (axis) *)
  | Thread of int  (** mapped to CUDA threadIdx.{x,y,z} (axis) *)
  | BlockThread of int * int
      (** strip-mined over a (block axis, thread axis) pair: iteration
          [i = blockIdx * thread_extent + threadIdx] *)

(** What a loop's iterations are; {!mark} says how they run. *)
type kind =
  | Plain  (** unit step *)
  | Tile of int
      (** a tile loop introduced by {!Tiling}, stepping by the tile size
          over the point loops below it *)
  | Vector of int
      (** a vector strip of this width, rewritten by {!Vectorpass}: its
          body is loop-free and each [VecExec] covers the strip's lanes.
          A parallel strip keeps its lanes when it is mapped to threads. *)

type t =
  | Stmts of t list  (** ordered sequence *)
  | For of loop
  | If of Constr.t list * t  (** guard: all constraints must hold *)
  | Exec of exec
  | VecExec of exec * int  (** statement instance over [width] lanes of the
                               innermost (vectorized) loop variable *)

and loop = {
  var : string;
  lower : Linexpr.t list;  (** max of ceilings; never empty *)
  upper : Linexpr.t list;  (** min of floors; never empty *)
  kind : kind;
  mark : mark;
  dim : int;
      (** schedule row this loop implements; a tile loop uses [row - 1000]
          as its mapping key, apart from its point loop's *)
  trip_hint : int option;
      (** constant trip count for loops whose bounds are not constant
          (tiling point loops); lets the mapping pass stay applicable *)
  body : t;
}

and exec = {
  stmt : string;
  iter_map : (string * Linexpr.t) list;
      (** original statement iterator -> expression over loop variables *)
}

val loop_var : int -> string
(** Canonical name of the loop variable of schedule dimension [d]. *)

val stmts_of : t -> string list
(** Statement names appearing in a subtree (each once, in order). *)

val map_loops : (loop -> loop) -> t -> t

val step : loop -> int
(** The loop's stride: the tile size or vector width, else 1. *)

val has_vector_loop : t -> bool
(** Whether the AST contains a vector strip or a [VecExec]. *)

val exec_count : t -> int
(** Number of [Exec]/[VecExec] sites. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
