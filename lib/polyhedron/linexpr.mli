(** Affine expressions over named variables with rational coefficients.

    An expression is [sum_i c_i * x_i + c0].  Variables are identified by
    strings; the representation keeps only non-zero coefficients. *)

open Polybase

type t

val zero : t
val const : Q.t -> t
val const_int : int -> t
val var : ?coef:Q.t -> string -> t

val of_int_terms : (int * string) list -> int -> t
(** [of_int_terms [(c1, x1); ...] c0] builds [c1*x1 + ... + c0];
    repeated variables are summed. *)

val coef : t -> string -> Q.t
(** Zero when the variable is absent. *)

val constant : t -> Q.t

val vars : t -> string list
(** Variables with non-zero coefficient, in lexicographic order. *)

val fold_terms : (string -> Q.t -> 'a -> 'a) -> t -> 'a -> 'a

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : Q.t -> t -> t
val add_term : Q.t -> string -> t -> t

val subst : string -> t -> t -> t
(** [subst x e t] replaces every occurrence of [x] in [t] by [e]. *)

val rename : (string -> string) -> t -> t
(** Renaming must be injective on the variables of the expression. *)

val eval : (string -> Q.t) -> t -> Q.t

val is_const : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** A structural hash consistent with {!equal}. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
