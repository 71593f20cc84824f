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

type memo
(** A simulator memo: the {!Memsim.result} of every kernel simulated
    through it, keyed by {!Memsim.key} (the walker's own input, so
    kernel, tensor, statement and iterator names do not split entries).
    [run] always computes the report from the result, so a hit returns a
    report bit-identical to a fresh run's.  The lowerings of one
    operator repeat kernels (novec is often isl's, tiled is isl's when
    no band tiles, the TVM comparator's per-statement kernels repeat
    the versions'): callers simulating one operator's lowerings share
    one memo across them.

    {b Not domain-safe: one memo per operator.}  A memo is a mutable
    table: create it inside the task that uses it and never share it
    across domains. *)

val memo : unit -> memo
(** An empty memo. *)

val run : ?memo:memo -> ?machine:Machine.t -> Codegen.Compile.compiled -> report
(** The time model on [machine] (default V100).  With [memo] the
    kernel's {!Memsim.key} is looked up first.  [gpusim.runs] counts the
    walks done and [gpusim.memo_hits] the requests a memo answered;
    [gpusim.mem_requests] and [gpusim.mem_sectors] add the simulated
    traffic of every request, and every request emits one [gpusim.sim]
    trace event whose [memo] field says whether the memo answered it. *)

val time_us : report -> float

val pp : Format.formatter -> report -> unit
