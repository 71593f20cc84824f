(** Seeded random kernel generator.

    Produces fusable statement chains — elementwise maps, reductions,
    stencil/shifted reads, transposed and broadcast accesses, strided
    (skewed) subscripts — over randomly-shaped tensors, in the image of
    the paper's Table I operators: the kinds of fused kernels MindSpore's
    graph-kernel fusion hands to AKG.  The shape is fixed: 1 to 4
    statements, rank 1 to 3, extents drawn from [{2, 3, 4, 5, 6, 8}], and
    each access deviates from the identity pattern (transpose, broadcast,
    shift, stride-2) with probability 0.5.  Generation is a pure function
    of [(seed, index)]; every produced case converts to a valid,
    bounds-checked {!Ir.Kernel.t}. *)

val generate : seed:int -> index:int -> unit -> Case.t
(** Case [index] of the run seeded with [seed] — deterministic, and
    independent of every other index. *)
