(** CUDA-flavoured pretty printer for compiled kernels.

    Produces readable device pseudo-code (for documentation, examples and
    debugging); nothing is compiled by a real CUDA toolchain in this
    repository — execution happens on the {!Gpusim} performance model. *)

val emit : Compile.compiled -> string

val denominator : Polyhedra.Linexpr.t -> int
(** The least common denominator of an affine expression's coefficients
    and constant.  A statement whose inverted schedule has rational
    coefficients only has instances where the inverse image is integral
    (it lives on a sublattice of the fused loop); C-side that becomes a
    divisibility guard plus exact integer division by this number.  The
    CPU emitter shares it. *)

val lattice_guards : (string * Polyhedra.Linexpr.t) list -> string list
(** One [(q*e) % q == 0] guard per substitution whose expression [e] has
    a denominator [q > 1]; shared with the CPU emitter. *)
