(** Warp-level memory-access simulation.

    Walks a compiled (mapped, optionally vectorized) AST for a sample of
    blocks and warps, executing all 32 lanes of each warp in lock-step, and
    counts warp-level memory requests, the 32-byte DRAM sectors they touch
    (coalescing falls out of the actual per-lane addresses), useful bytes
    and arithmetic operations.  Long serial loops are sampled and counts
    scaled.  That the scaled counts equal an unsampled walk is assumed,
    not proven: only the flops are checked against an exhaustive walk
    ([test_gpusim]'s "exhaustive flops"); extending that check to requests
    and sectors, against a walk with every sampling argument at
    [max_int], is an open ROADMAP item.

    {b Lane shapes.}  A warp's lane shape is its lanes' thread coordinates
    relative to lane 0's, plus its base mask.  Once per (access, lane
    shape, request length) the walker computes the byte delta of every
    lane's address from lane 0's and shares it across every warp and
    block of that shape, in a {!Lane_table}.  Each request is then
    answered from the table entry of (active-lane bitmask, lane 0's
    address modulo the sector size): the sorted distinct sector offsets
    and the useful bytes.  The main walk adds [weight] times their count,
    the probe inserts lane 0's sector plus each offset in ascending order,
    so every sum and every set insertion happens in the order of a
    lane-by-lane gather, and every result is bit-identical to one.  It is
    exact because:
    - inside a warp, lane environments differ only on the slots of
      enclosing thread-mapped loops, by [(pos_l - pos_0) * step], so an
      offset without a denominator has lane deltas that depend on the
      shape alone;
    - for non-negative addresses, [(q*S + r + d) asr k = q + ((r + d) asr k)]
      with [S = 2^k] and [0 <= r < S].

    A request is still gathered lane by lane, and counted in
    [gpusim.lane_gathers] (added once per walk), when:
    - its offset has a denominator (a statement on a sublattice, see
      below);
    - its offset reads a variable that no enclosing loop binds, or the
      program has a loop that rebinds an enclosing loop's variable;
    - an active lane's address is negative, where the gather divides by
      truncation;
    - the sector size is not a power of two;
    - the warp is too wide for its lane bitmask and the residue to share
      one [int].

    {b Lane-uniform work.}  Lanes of one warp differ only on the slots
    that thread-mapped loops bind: every other loop writes one value into
    every lane.  A bound or guard expression that reads no such slot (one
    bound by a thread-mapped loop anywhere in the program) is lane-uniform:
    the walker evaluates it once, on lane 0, and passes the incoming lane
    mask through unchanged, since every active lane would give the same
    answer and a uniform serial loop's sample points lie inside every
    lane's range.  Only lane-varying guards and serial loop bounds, and
    statements on a sublattice, are evaluated lane by lane.  Lane 0's
    environment holds every slot; the other lanes' hold the thread-mapped
    slots only and read the rest from lane 0's, which is the value they
    would hold.  Integer sums do not depend on term order, and every float
    sum is formed as before, so the results are bit-identical to a walk
    that writes and evaluates every lane.  Lane masks are [int] bitmasks
    carried with their lane counts, and each warp id's thread
    coordinates, base mask and lane shape are computed once per walk.

    On top of the raw traffic counts, a footprint probe walks one
    mid-grid block with {e all} of its warps and measures, per tensor,
    total sector traffic vs. distinct sectors touched.  The gap is
    intra-block redundancy; it is served on chip when the block's whole
    footprint (its worst-case reuse distance) fits the occupancy-limited
    shared-memory/L1 capacity, which is exactly what tiling buys.  Re-reads
    beyond a tensor's own size hit in L2 when the working set fits there.
    The probe marks a tensor's sectors in a bitmap over the tensor's own
    sector range; a sector outside it goes to a hash set.
    [bytes] stays the cache-less sector traffic; [dram_bytes] is what is
    left for DRAM after both levels.

    A statement whose [iter_map] has rational entries (a non-unimodular
    schedule row, see {!Codegen.Ast}) has instances only at the loop
    points where every entry is an integer.  Lanes at the other points
    issue no request and no arithmetic for that statement, the points
    {!Interp.run_ast} skips and {!Codegen.Cuda.emit} guards.

    Loops advance by {!Codegen.Ast.step}.  The loop kind alone says which
    variable a [VecExec]'s lanes run along: the innermost enclosing loop
    of kind [Vector w], serial or thread-mapped.  A tile loop is walked
    like any other serial or mapped loop. *)

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

type program
(** A lowering compiled for the walker on one machine: loop variables
    become integer slots, numbered in program order; affine expressions
    become integer terms sorted by slot; each tensor becomes its index in
    the kernel's tensor list, its base address (laid out in that order)
    and its element size.  Kernel, statement, tensor and iterator names
    do not reach it. *)

val build : Machine.t -> Codegen.Compile.compiled -> program
(** @raise Invalid_argument when the machine's warp has more lanes than
    an [int] has bits ([Sys.int_size]). *)

val key : program -> string
(** An exact serialization (no digest) of everything {!walk} reads: the
    program (every loop's slot, bounds, step, role and kind; guards;
    accesses; statement op counts and vector widths), the slot count,
    the tensor sizes, the mapping's block and thread dims and every
    field of the machine.  The per-lane scratch arrays the walker writes
    before it reads are left out, and so are the accesses' numbering,
    their lane-shape flags, the lane-uniform classification of
    expressions and the tensors' base addresses, which the program's tree
    and the tensor sizes decide.  Equal keys
    therefore mean equal {!walk} results under equal sampling arguments,
    and the same kernel under other names has the same key.  A changed extent, element type,
    tensor declaration order or machine changes it. *)

(** The per-pattern sector table of one access under one lane shape and
    request length. *)
module Lane_table : sig
  type t

  val create : sector_bytes:int -> deltas:int array -> len:int -> t
  (** [deltas.(l)] is the byte delta of lane [l]'s address from lane 0's;
      every lane requests [len] bytes.
      @raise Invalid_argument when [sector_bytes] is not a power of two
      [2^k] or [Array.length deltas + k] exceeds [Sys.int_size - 1]. *)

  val lookup : t -> mask:int -> residue:int -> int array * int
  (** The request of the lanes whose bits are set in [mask], lane 0 at an
      address [a] with [a mod sector_bytes = residue]: the distinct
      sectors the active lanes' byte ranges touch, ascending, as offsets
      from the sector of [a] (rounded down, so an offset may be
      negative), and the bytes they use.  Entries are filled on first
      use and kept.
      @raise Invalid_argument when [mask] has a bit at or beyond
      [Array.length deltas] or [residue] is outside [\[0, sector_bytes)]. *)
end

val walk :
  ?block_samples:int -> ?warp_samples:int -> ?loop_sample_cap:int -> program -> result
(** The traffic simulation described above.  A program's scratch arrays
    make a walk not reentrant: walk one program at a time. *)

val collect :
  ?block_samples:int ->
  ?warp_samples:int ->
  ?loop_sample_cap:int ->
  Machine.t ->
  Codegen.Compile.compiled ->
  result
(** [walk (build machine c)]. *)
