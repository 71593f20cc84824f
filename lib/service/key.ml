(* Bump whenever the cached payload format or the digest preimage changes:
   a bump changes every digest, so stale entries simply miss (and age out
   of the size cap) instead of being misread.  3: serve lowers infl and cpu
   with the version table's vec_min_parallel, so older serve replies are
   stale.  4: the scheduler's fast-path/ILP choice left every flag list
   (both choices give the same schedule), so every preimage changed.
   5: serve keys no longer carry the operator's name, and serve payloads
   no longer store it (the reply echoes the request's). *)
let format_version = 5

type t = { digest : string; format : int; label : string }

let digest t = t.digest
let format t = t.format
let label t = t.label

(* The preimage is a fully textual, versioned rendering of everything the
   compile result depends on.  Ir.Kernel.pp prints the complete kernel
   (tensors, statements, accesses), and machine floats
   are rendered in hex so equal profiles digest equally and nearly-equal
   ones never collide. *)
let machine_fields (m : Gpusim.Machine.t) =
  Printf.sprintf "%s;%d;%d;%h;%d;%d;%h;%h;%h;%h;%h;%d;%d;%h;%h;%s" m.Gpusim.Machine.name
    m.warp_size m.sector_bytes m.clock_hz m.sm_count m.max_resident_warps
    m.dram_bandwidth m.mem_latency_cycles m.memory_parallelism m.flops_peak
    m.launch_overhead_s m.shared_mem_per_sm m.l2_bytes m.shared_bandwidth m.l2_bandwidth
    (Gpusim.Machine.isa_name m.isa)

let make ?(format_version = format_version) ?(flags = []) ~kernel ~machine ~version () =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "akg-repro-cache/%d\n" format_version);
  Buffer.add_string b ("version=" ^ version ^ "\n");
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "flag:%s=%s\n" k v))
    (List.sort compare flags);
  Buffer.add_string b ("machine=" ^ machine_fields machine ^ "\n");
  Buffer.add_string b "kernel:\n";
  Buffer.add_string b (Ir.Kernel.to_string kernel);
  { digest = Digest.to_hex (Digest.string (Buffer.contents b));
    format = format_version;
    label = kernel.Ir.Kernel.name ^ "/" ^ version
  }
