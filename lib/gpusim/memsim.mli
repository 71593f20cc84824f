(** Warp-level memory-access simulation.

    Walks a compiled (mapped, optionally vectorized) AST for a sample of
    blocks and warps, executing all 32 lanes of each warp in lock-step, and
    counts warp-level memory requests, the 32-byte DRAM sectors they touch
    (coalescing falls out of the actual per-lane addresses), useful bytes
    and arithmetic operations.  Long serial loops are sampled and counts
    scaled — exact for the affine access streams this repository
    generates.

    On top of the raw traffic counts, a footprint probe walks one
    mid-grid block with {e all} of its warps and measures, per tensor,
    total sector traffic vs. distinct sectors touched.  The gap is
    intra-block redundancy; it is served on chip when the block's whole
    footprint (its worst-case reuse distance) fits the occupancy-limited
    shared-memory/L1 capacity, which is exactly what tiling buys.  Re-reads
    beyond a tensor's own size hit in L2 when the working set fits there.
    [bytes] stays the cache-less sector traffic; [dram_bytes] is what is
    left for DRAM after both levels.

    A statement whose [iter_map] has rational entries (a non-unimodular
    schedule row, see {!Codegen.Ast}) has instances only at the loop
    points where every entry is an integer.  Lanes at the other points
    issue no request and no arithmetic for that statement, the points
    {!Interp.run_ast} skips and {!Codegen.Cuda.emit} guards. *)

type result = {
  requests : float;  (** warp-level memory instructions issued *)
  sectors : float;  (** 32-byte sectors transferred *)
  bytes : float;  (** sectors * sector size *)
  useful_bytes : float;  (** bytes actually consumed/produced by lanes *)
  flops : float;
  blocks : int;
  threads_per_block : int;
  warps : float;
  requests_per_warp : float;
  footprint_bytes : float;  (** distinct bytes one block touches (probe) *)
  capacity_bytes : float;
      (** on-chip bytes available to one block at this occupancy *)
  shared_hit_bytes : float;  (** traffic served by shared/L1 reuse *)
  l2_hit_bytes : float;  (** traffic served by L2 reuse *)
  dram_bytes : float;  (** [bytes - shared_hit_bytes - l2_hit_bytes] *)
}

val collect :
  ?block_samples:int ->
  ?warp_samples:int ->
  ?loop_sample_cap:int ->
  Machine.t ->
  Codegen.Compile.compiled ->
  result
