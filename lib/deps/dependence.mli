(** Dependence relations between statement instances.

    A dependence [d] relates source iterations [s] of statement [d.source]
    to target iterations [t] of [d.target] through the polyhedron [d.rel],
    whose variables are the source statement's iterators plus the target
    statement's iterators (renamed with {!rename_target} when source and
    target are the same statement).  Following the paper's Section IV-A1,
    each relation is convex: lexicographic precedence is split into one
    relation per depth. *)

open Polyhedra

type kind = Flow | Anti | Output

type t = {
  kind : kind;
  tensor : string;  (** the conflicting tensor *)
  source : string;  (** source statement name *)
  target : string;  (** target statement name *)
  src_iters : string list;
      (** source iterators as they appear in [rel] (statement order) *)
  tgt_iters : string list;
      (** target iterators as they appear in [rel] (statement order) *)
  rel : Polyhedron.t;
  depth : int;
      (** lexicographic depth of the precedence split; [-1] when precedence
          comes from statement ordering alone *)
}

val rename_target : string -> string
(** The name of a target iterator in a self-dependence's [rel]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
