(** Exact linear algebra over {!Q}.

    Matrices are dense, row-major [Q.t array array].  All rows of a matrix
    must have the same length; constructors check this. *)

type vec = Q.t array
type mat = Q.t array array

val vec_of_ints : int array -> vec
val mat_of_ints : int array array -> mat

val zeros : int -> int -> mat
val identity : int -> mat

val dims : mat -> int * int
(** [(rows, cols)]; a 0-row matrix reports 0 columns. *)

val mat_mul : mat -> mat -> mat
val mat_vec : mat -> vec -> vec
val dot : vec -> vec -> Q.t
val vec_is_zero : vec -> bool
val vec_equal : vec -> vec -> bool

val rref : mat -> mat * int list
(** Reduced row-echelon form and the list of pivot column indices, in
    order. The input is not mutated. *)

val rank : mat -> int

val inverse : mat -> mat option
(** [None] if the matrix is singular or not square. *)

val solve : mat -> vec -> vec option
(** [solve a b] is some [x] with [a x = b], or [None] if inconsistent.
    When underdetermined, free variables are set to zero. *)

val nullspace : mat -> vec list
(** Basis of [{ x | a x = 0 }].  Vectors are scaled to integer entries with
    content 1 (primitive integer vectors). *)

val row_space_contains : mat -> vec -> bool
(** Whether a vector is a linear combination of the matrix rows. *)

val integerize : vec -> vec
(** Scales a rational vector by the positive lcm of denominators divided by
    the gcd of numerators, yielding a primitive integer vector (zero vector
    maps to itself). *)
