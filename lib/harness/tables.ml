let table1 fmt =
  Format.fprintf fmt "TABLE I — TARGET END-TO-END WORKLOADS@.";
  Format.fprintf fmt "%-14s %-5s %-22s %s@." "Network" "Type" "Dataset" "Fused ops";
  List.iter
    (fun (n : Ops.Networks.t) ->
      Format.fprintf fmt "%-14s %-5s %-22s %d@." n.Ops.Networks.name n.kind n.dataset
        (Ops.Networks.op_count n))
    Ops.Networks.all

let table2_header fmt =
  Format.fprintf fmt
    "TABLE II — FUSED OPERATORS EXECUTION TIMES (simulated V100)@.";
  Format.fprintf fmt
    "%-12s | %5s %4s %4s %5s | %9s %9s %9s %9s %9s | %5s %5s %5s %5s | %9s %9s %9s %9s | %5s %5s %5s@."
    "Network" "total" "vec" "infl" "tiled" "isl(ms)" "tvm(ms)" "novec(ms)" "infl(ms)"
    "tiled(ms)" "tvm" "novec" "infl" "tiled" "isl(ms)" "tvm(ms)" "novec(ms)" "infl(ms)"
    "tvm" "novec" "infl";
  Format.fprintf fmt
    "%-12s | %22s | %51s | %25s | %41s | %19s@."
    "" "operator count" "all fused operators: time" "speedup"
    "influenced only: time" "speedup"

let table2_row fmt name results =
  let a = Eval.aggregate results in
  Format.fprintf fmt
    "%-12s | %5d %4d %4d %5d | %9.2f %9.2f %9.2f %9.2f %9.2f | %5.2f %5.2f %5.2f %5.2f | %9.2f %9.2f %9.2f %9.2f | %5.2f %5.2f %5.2f@."
    name a.Eval.total a.vec_count a.infl_count a.tiled_count a.isl_ms a.tvm_ms a.novec_ms
    a.infl_ms a.tiled_ms
    (Eval.speedup a.isl_ms a.tvm_ms)
    (Eval.speedup a.isl_ms a.novec_ms)
    (Eval.speedup a.isl_ms a.infl_ms)
    (Eval.speedup a.isl_ms a.tiled_ms)
    a.i_isl_ms a.i_tvm_ms a.i_novec_ms a.i_infl_ms
    (Eval.speedup a.i_isl_ms a.i_tvm_ms)
    (Eval.speedup a.i_isl_ms a.i_novec_ms)
    (Eval.speedup a.i_isl_ms a.i_infl_ms)

let table2 fmt per_network =
  table2_header fmt;
  List.iter (fun (name, results) -> table2_row fmt name results) per_network

let stats_header fmt =
  Format.fprintf fmt
    "%-28s | %9s %9s %8s | %4s %4s %4s %5s | %9s %9s %9s %9s@."
    "operator" "ilp(isl)" "ilp(infl)" "bb-nodes" "sib" "back" "scc" "aband"
    "sched(ms)" "tree(ms)" "lower(ms)" "sim(ms)"

(* Solver work summed over the isl, infl and tiled runs: they share a
   solver memo, so only the sum is comparable across revisions. *)
let scheds (r : Eval.op_result) =
  let o = r.Eval.obs in
  [ o.Eval.isl_sched; o.Eval.infl_sched; o.Eval.tiled_sched ]

let bb_nodes r = List.fold_left (fun acc s -> acc + s.Pipeline.bb_nodes) 0 (scheds r)
let sched_ms r = List.fold_left (fun acc s -> acc +. s.Pipeline.sched_s) 0.0 (scheds r) *. 1e3

let stats_row fmt (r : Eval.op_result) =
  let o = r.Eval.obs in
  Format.fprintf fmt
    "%-28s | %9d %9d %8d | %4d %4d %4d %5s | %9.2f %9.2f %9.2f %9.2f@."
    r.Eval.op_name o.Eval.isl_sched.Pipeline.ilp_solves
    o.Eval.infl_sched.Pipeline.ilp_solves (bb_nodes r)
    o.Eval.infl_sched.Pipeline.sibling_moves o.Eval.infl_sched.Pipeline.ancestor_backtracks
    o.Eval.infl_sched.Pipeline.scc_separations
    (if o.Eval.infl_sched.Pipeline.abandoned then "yes" else "no")
    (sched_ms r) (o.Eval.tree_s *. 1e3) (o.Eval.lower_s *. 1e3) (o.Eval.sim_s *. 1e3)

let stats_table fmt results =
  stats_header fmt;
  List.iter (stats_row fmt) results;
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 results in
  let sumi f = List.fold_left (fun acc r -> acc + f r) 0 results in
  Format.fprintf fmt
    "%-28s | %9d %9d %8d | %4d %4d %4d %5d | %9.2f %9.2f %9.2f %9.2f@."
    (Printf.sprintf "TOTAL (%d ops)" (List.length results))
    (sumi (fun r -> r.Eval.obs.Eval.isl_sched.Pipeline.ilp_solves))
    (sumi (fun r -> r.Eval.obs.Eval.infl_sched.Pipeline.ilp_solves))
    (sumi bb_nodes)
    (sumi (fun r -> r.Eval.obs.Eval.infl_sched.Pipeline.sibling_moves))
    (sumi (fun r -> r.Eval.obs.Eval.infl_sched.Pipeline.ancestor_backtracks))
    (sumi (fun r -> r.Eval.obs.Eval.infl_sched.Pipeline.scc_separations))
    (sumi (fun r -> if r.Eval.obs.Eval.infl_sched.Pipeline.abandoned then 1 else 0))
    (sum sched_ms)
    (sum (fun r -> r.Eval.obs.Eval.tree_s *. 1e3))
    (sum (fun r -> r.Eval.obs.Eval.lower_s *. 1e3))
    (sum (fun r -> r.Eval.obs.Eval.sim_s *. 1e3))

let geomean_line fmt per_network =
  let speedups =
    List.map
      (fun (_, results) ->
        let a = Eval.aggregate results in
        Eval.speedup a.Eval.isl_ms a.infl_ms)
      per_network
  in
  Format.fprintf fmt
    "geomean infl speedup over isl across networks: %.2fx (paper: 1.7x)@."
    (Eval.geomean speedups)
