(** Kernel execution-time model.

    Combines the warp-level traffic of {!Memsim} with a roofline over
    DRAM bandwidth (with a saturation ramp for small kernels),
    memory-request latency (hidden by warp parallelism and vector width),
    on-chip bandwidth for the shared/L2 reuse hits Memsim's footprint
    probe attributes, and arithmetic throughput.  Absolute numbers are
    indicative; the model preserves the orderings the paper's evaluation
    depends on. *)

type report = {
  time_s : float;
  bw_time_s : float;  (** DRAM time for the traffic that misses on chip *)
  onchip_time_s : float;
      (** shared/L1 + L2 service time for reuse hits: the component tiling
          trades DRAM traffic into *)
  latency_time_s : float;
  compute_time_s : float;
  issue_time_s : float;
      (** instruction-issue pressure: what vector types shrink *)
  mem : Memsim.result;
  coalescing_efficiency : float;  (** useful bytes / transferred bytes *)
}

val run : ?machine:Machine.t -> Codegen.Compile.compiled -> report
(** The time model on [machine] (default V100).  The walk's
    {!Memsim.result} is a {!Polyhedra.Solver_memo} table keyed by
    {!Memsim.key} (the walker's own input, marshalled, so kernel, tensor,
    statement and iterator names do not split entries); the report is always
    computed from the result, so a hit returns a report bit-identical to
    a fresh run's.  The lowerings of one operator repeat kernels (novec
    is often isl's, tiled is isl's when no band tiles, the TVM
    comparator's per-statement kernels repeat the versions'), and inside
    one scope each is walked once.  [gpusim.runs] counts the walks done
    and [gpusim.memo_hits] the requests the table answered;
    [gpusim.mem_requests] and [gpusim.mem_sectors] add the simulated
    traffic of every request, and every request emits one [gpusim.sim]
    trace event whose [memo] field says whether the table answered it. *)

val time_us : report -> float

val pp : Format.formatter -> report -> unit
