(** Exact rational numbers.

    Values are kept normalized: the denominator is positive and coprime with
    the numerator; zero is [0/1].  The representation carries small
    numerator/denominator pairs as native ints (the overwhelmingly common
    case in the polyhedral stack) and falls back to {!Bigint} components
    only when a reduced component exceeds the native-int fast-path bound;
    all operations remain exact in both cases. *)

type t

val zero : t
val one : t
val minus_one : t

val make : Bigint.t -> Bigint.t -> t
(** [make n d] is the normalized rational [n/d].
    @raise Division_by_zero if [d] is zero. *)

val of_bigint : Bigint.t -> t
val of_int : int -> t
val of_ints : int -> int -> t
(** [of_ints n d] is [n/d]. *)

val num : t -> Bigint.t
val den : t -> Bigint.t

val sign : t -> int
val is_zero : t -> bool
val is_integer : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** A hash consistent with {!equal}: equal values hash alike. *)

val neg : t -> t
val abs : t -> t
val inv : t -> t
(** @raise Division_by_zero on zero. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero on zero divisor. *)

val min : t -> t -> t
val max : t -> t -> t

val floor : t -> Bigint.t
val ceil : t -> Bigint.t

val to_int : t -> int
(** @raise Failure if not an integer or does not fit. *)

val to_float : t -> float
(** Approximate conversion, for reporting only. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(* Infix helpers, intended for local [open Q.Infix]. *)
module Infix : sig
  val ( +/ ) : t -> t -> t
  val ( -/ ) : t -> t -> t
  val ( */ ) : t -> t -> t
  val ( // ) : t -> t -> t
  val ( =/ ) : t -> t -> bool
  val ( </ ) : t -> t -> bool
  val ( <=/ ) : t -> t -> bool
  val ( >/ ) : t -> t -> bool
  val ( >=/ ) : t -> t -> bool
end
