(** Affine constraints: [e = 0] or [e >= 0] for an affine expression [e]. *)

open Polybase

type kind = Eq | Ge

type t = { expr : Linexpr.t; kind : kind }

val eq0 : Linexpr.t -> t
(** [e = 0]. *)

val ge0 : Linexpr.t -> t
(** [e >= 0]. *)

val eq : Linexpr.t -> Linexpr.t -> t
(** [eq a b] is [a - b = 0]. *)

val geq : Linexpr.t -> Linexpr.t -> t
(** [geq a b] is [a - b >= 0], i.e. [a >= b]. *)

val leq : Linexpr.t -> Linexpr.t -> t
(** [leq a b] is [b - a >= 0], i.e. [a <= b]. *)

val lower_bound : string -> int -> t
(** [lower_bound x n] is [x >= n]. *)

val upper_bound : string -> int -> t
(** [upper_bound x n] is [x <= n]. *)

val normalize : t -> t
(** Scales the expression so integer coefficients have content 1 (sign
    preserved for inequalities). *)

val triviality : t -> bool option
(** For constraints without variables: [Some true] if satisfied, [Some
    false] if contradictory; [None] if the constraint has variables. *)

val holds : (string -> Q.t) -> t -> bool

val vars : t -> string list

val rename : (string -> string) -> t -> t
val subst : string -> Linexpr.t -> t -> t

val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** A structural hash consistent with {!equal}. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
