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
  | Vectorized of int * bool
      (** rewritten with explicit vector types of (width); the flag records
          whether the strip loop is parallel (mappable to threads) *)
  | Block of int  (** mapped to CUDA blockIdx.{x,y,z} (axis) *)
  | Thread of int  (** mapped to CUDA threadIdx.{x,y,z} (axis) *)
  | BlockThread of int * int
      (** strip-mined over a (block axis, thread axis) pair: iteration
          [i = blockIdx * thread_extent + threadIdx] *)

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
  step : int;
  mark : mark;
  dim : int;
      (** schedule row this loop implements; tile loops introduced by
          {!Tiling} use [row - 1000] so they sort outermost *)
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

val is_tile_loop : loop -> bool
(** Whether the loop is a tile loop introduced by {!Tiling} — the one place
    that knows how tile loops are encoded. *)

val has_vector_loop : t -> bool
(** Whether the AST contains a vectorized loop: a [VecExec], or a loop
    stepping by more than one that is not a tile loop. *)

val exec_count : t -> int
(** Number of [Exec]/[VecExec] sites. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
