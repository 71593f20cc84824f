(** Tensors: named, typed, row-major multi-dimensional arrays.

    Fused AI/DL operators manipulate tensors with fixed shapes (AKG receives
    operators after shape inference), so dimensions are concrete. *)

type dtype = F16 | F32

type t = { name : string; dims : int array; dtype : dtype }

val make : string -> int list -> t
(** An [F32] tensor.
    @raise Invalid_argument on empty name, non-positive dimension or a
    byte size ({!bytes}) that overflows [int]. *)

val rank : t -> int

val elems : t -> int
(** Total number of elements. *)

val dtype_bytes : dtype -> int

val bytes : t -> int

val strides : t -> int array
(** Row-major element strides: the last dimension has stride 1. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
