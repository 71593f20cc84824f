(** Tiling as an influence-tree constraint-injection client.

    The paper's claim (Section IV-A4) is that the influence tree is a
    generic channel: any non-linear optimizer can inject scheduling
    constraints through Algorithm 1 without scheduler surgery.  The
    vectorizer was the first client; this module is the second.  It
    selects a tilable band — the outermost contiguous run of dimensions on
    which every dependence has a non-negative distance
    (forward-dependence-only, hence permutable) — picks tile shapes whose
    per-tile footprint fits the machine's per-block shared-memory budget,
    and emits an influence tree that pins the band's canonical identity
    rows and deposits the chosen tile sizes as a {!Schedule.Tile_sizes}
    annotation.  The codegen tiling pass ({!Codegen.Tiling}) later
    consumes the annotation, re-checking permutability against the
    dependences, so an erroneous band selection here degrades to "not
    tiled", never to wrong code. *)

type model = {
  shared_mem_bytes : int;
      (** per-block on-chip budget one tile's working set must fit in *)
  max_tile_size : int;  (** per-dimension tile-size cap *)
  elem_bytes : int;  (** assumed element size for footprint estimates *)
  halo : int;  (** assumed per-dimension stencil halo *)
}

val default_model : model
(** Approximates a V100 SM at two resident blocks: 48 KiB per block,
    32-wide tiles, 4-byte elements, halo 2. *)

val band_depth : Ir.Kernel.t -> Deps.Dependence.t list -> int
(** Length of the outermost contiguous run of dimensions (bounded by the
    shallowest statement) on which every dependence has a
    non-negative distance — the permutable, forward-dependence-only band
    tiling may partition.  [0] when no such band exists. *)

val choose_sizes : model -> Ir.Kernel.t -> int -> (int * int) list
(** [(ordinal, size)] tile shape for a band of the given depth: sizes are
    powers of two capped by [model.max_tile_size] and by half the
    dimension's extent, then halved (largest first) until the estimated
    per-tile footprint fits [model.shared_mem_bytes].  Dimensions too
    small to tile are omitted. *)

val influence_for : Ir.Kernel.t -> Influence.t
(** Builds the tiling influence tree: one branch pinning identity rows
    for the full band (with the tile shape as leaf payload), plus a
    2-dimensional fallback branch for deeper bands.  Returns
    {!Influence.empty} when the kernel has no tilable band of depth >= 2
    or every dimension is too small to tile — scheduling with an empty
    tree is exactly the baseline.  Sizes come from {!default_model}. *)
