type report = {
  time_s : float;
  bw_time_s : float;
  onchip_time_s : float;
  latency_time_s : float;
  compute_time_s : float;
  issue_time_s : float;
  mem : Memsim.result;
  coalescing_efficiency : float;
}

let c_runs =
  Obs.Counters.create "gpusim.runs" ~doc:"simulated kernel executions (warp walks done)"

let c_memo_hits =
  Obs.Counters.create "gpusim.memo_hits"
    ~doc:"simulation requests answered from the solver memo"

let c_requests =
  Obs.Counters.create "gpusim.mem_requests"
    ~doc:"simulated warp-level memory transactions (rounded)"

let c_sectors =
  Obs.Counters.create "gpusim.mem_sectors" ~doc:"simulated 32-byte DRAM sectors (rounded)"

(* Keyed by the walker's name-free input, serialized only inside a scope. *)
module Memo = Polyhedra.Solver_memo.Make (struct
  type key = string Lazy.t
  type value = Memsim.result

  let hash k = Hashtbl.hash (Lazy.force k)
  let equal a b = String.equal (Lazy.force a) (Lazy.force b)
  let hits = c_memo_hits
end)

let run ?(machine = Machine.v100) compiled =
  Obs.Span.with_ "gpusim.run" @@ fun () ->
  let program = Memsim.build machine compiled in
  let hit = ref true in
  let mem =
    Memo.find (lazy (Memsim.key program)) (fun () ->
        hit := false;
        Obs.Counters.incr c_runs;
        Obs.Span.with_ "gpusim.memsim" (fun () -> Memsim.walk program))
  in
  let hit = !hit in
  Obs.Counters.add c_requests (int_of_float mem.Memsim.requests);
  Obs.Counters.add c_sectors (int_of_float mem.Memsim.sectors);
  let m = machine in
  let coalescing_efficiency =
    if mem.Memsim.bytes > 0. then mem.Memsim.useful_bytes /. mem.Memsim.bytes else 1.0
  in
  (* Bandwidth: by Little's law the DRAM only saturates when enough bytes
     are in flight (latency x bandwidth).  Each resident warp overlaps
     [memory_parallelism] requests whose size depends on coalescing and
     vector width, so wide requests need fewer warps — the reason explicit
     vector types help small kernels. *)
  let resident_warps =
    Float.min mem.Memsim.warps (float_of_int m.Machine.max_resident_warps)
  in
  let avg_request_bytes =
    if mem.Memsim.requests > 0. then mem.Memsim.bytes /. mem.Memsim.requests else 0.
  in
  let inflight_bytes = resident_warps *. m.Machine.memory_parallelism *. avg_request_bytes in
  let saturation_bytes =
    m.Machine.mem_latency_cycles /. m.Machine.clock_hz *. m.Machine.dram_bandwidth
  in
  (* Scattered sector streams also lose DRAM row-buffer locality: peak
     bandwidth degrades as coalescing drops. *)
  let dram_efficiency = Float.min 1.0 (0.55 +. (0.45 *. coalescing_efficiency)) in
  let bw_eff =
    m.Machine.dram_bandwidth *. dram_efficiency
    *. Float.min 1.0 (inflight_bytes /. saturation_bytes)
  in
  (* Only the traffic that misses on chip reaches DRAM; reuse hits are
     served at shared/L2 bandwidth in a separate (much cheaper) component,
     so tiled schedules with small per-block footprints win exactly the
     redundant fraction of their traffic. *)
  let bw_time_s = mem.Memsim.dram_bytes /. Float.max bw_eff 1.0 in
  let onchip_time_s =
    (mem.Memsim.shared_hit_bytes /. m.Machine.shared_bandwidth)
    +. (mem.Memsim.l2_hit_bytes /. m.Machine.l2_bandwidth)
  in
  (* Latency: each warp issues its requests with limited overlap; resident
     warps execute concurrently, extra warps serialize in rounds. *)
  let rounds =
    Float.max 1.0 (ceil (mem.Memsim.warps /. float_of_int m.Machine.max_resident_warps))
  in
  let latency_time_s =
    mem.Memsim.requests_per_warp /. m.Machine.memory_parallelism
    *. (m.Machine.mem_latency_cycles /. m.Machine.clock_hz)
    *. rounds
  in
  (* Issue: every memory instruction (plus its address arithmetic) costs
     pipeline slots — the component explicit vector types shrink 2-4x. *)
  let issue_units =
    Float.max 1.0 (Float.min (float_of_int m.Machine.sm_count) mem.Memsim.warps)
  in
  let issue_time_s = mem.Memsim.requests *. 8.0 /. (m.Machine.clock_hz *. issue_units) in
  let occupancy =
    Float.min 1.0 (mem.Memsim.warps /. float_of_int (m.Machine.sm_count * 16))
  in
  let compute_time_s = mem.Memsim.flops /. (m.Machine.flops_peak *. Float.max occupancy 0.01) in
  (* Components overlap, but not perfectly: the leader plus a fraction of
     the rest. *)
  let components =
    [ bw_time_s; onchip_time_s; latency_time_s; compute_time_s; issue_time_s ]
  in
  let lead = List.fold_left Float.max 0.0 components in
  let others = List.fold_left ( +. ) 0.0 components -. lead in
  let time_s = m.Machine.launch_overhead_s +. lead +. (0.25 *. others) in
  Obs.Trace.emitf "gpusim.sim" (fun () ->
      [ ("kernel", Obs.Json.String compiled.Codegen.Compile.kernel.Ir.Kernel.name);
        ("memo", Obs.Json.Bool hit);
        ("time_us", Obs.Json.Float (time_s *. 1e6));
        ("bw_us", Obs.Json.Float (bw_time_s *. 1e6));
        ("onchip_us", Obs.Json.Float (onchip_time_s *. 1e6));
        ("latency_us", Obs.Json.Float (latency_time_s *. 1e6));
        ("compute_us", Obs.Json.Float (compute_time_s *. 1e6));
        ("issue_us", Obs.Json.Float (issue_time_s *. 1e6));
        ("requests", Obs.Json.Float mem.Memsim.requests);
        ("sectors", Obs.Json.Float mem.Memsim.sectors);
        ("bytes", Obs.Json.Float mem.Memsim.bytes);
        ("dram_bytes", Obs.Json.Float mem.Memsim.dram_bytes);
        ("shared_hit_bytes", Obs.Json.Float mem.Memsim.shared_hit_bytes);
        ("l2_hit_bytes", Obs.Json.Float mem.Memsim.l2_hit_bytes);
        ("footprint_bytes", Obs.Json.Float mem.Memsim.footprint_bytes);
        ("useful_bytes", Obs.Json.Float mem.Memsim.useful_bytes);
        ("coalescing", Obs.Json.Float coalescing_efficiency);
        ("warps", Obs.Json.Float mem.Memsim.warps);
        ("blocks", Obs.Json.Int mem.Memsim.blocks);
        ("threads_per_block", Obs.Json.Int mem.Memsim.threads_per_block)
      ]);
  { time_s; bw_time_s; onchip_time_s; latency_time_s; compute_time_s; issue_time_s;
    mem; coalescing_efficiency }

let time_us r = r.time_s *. 1e6

let pp fmt r =
  Format.fprintf fmt
    "time %.2fus (bw %.2f, chip %.2f, lat %.2f, cmp %.2f, iss %.2f) bytes %.0f dram %.0f useful %.0f coal %.0f%% reqs %.0f warps %.0f"
    (time_us r) (r.bw_time_s *. 1e6) (r.onchip_time_s *. 1e6)
    (r.latency_time_s *. 1e6) (r.compute_time_s *. 1e6) (r.issue_time_s *. 1e6)
    r.mem.Memsim.bytes r.mem.Memsim.dram_bytes r.mem.Memsim.useful_bytes
    (100. *. r.coalescing_efficiency) r.mem.Memsim.requests r.mem.Memsim.warps
