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
let bb_nodes (o : Eval.op_obs) = o.isl.bb_nodes + o.infl.bb_nodes + o.tiled.bb_nodes

let stats_row fmt (r : Eval.op_result) =
  match r.Eval.obs with
  | None -> Format.fprintf fmt "%-28s | cached@." r.Eval.op_name
  | Some o ->
    let i = o.Eval.infl in
    Format.fprintf fmt
      "%-28s | %9d %9d %8d | %4d %4d %4d %5s | %9.2f %9.2f %9.2f %9.2f@."
      r.Eval.op_name o.isl.ilp_solves i.ilp_solves (bb_nodes o) i.sibling_moves
      i.ancestor_backtracks i.scc_separations
      (if i.influence_abandoned then "yes" else "no")
      (o.sched_s *. 1e3) (o.tree_s *. 1e3) (o.lower_s *. 1e3) (o.sim_s *. 1e3)

(* The totals cover the rows computed in this run: a cached row's work
   was done by another. *)
let stats_table fmt results =
  stats_header fmt;
  List.iter (stats_row fmt) results;
  let computed = List.filter_map (fun (r : Eval.op_result) -> r.obs) results in
  let cached = List.length results - List.length computed in
  let sum f = List.fold_left (fun acc o -> acc +. (f o *. 1e3)) 0.0 computed in
  let sumi f = List.fold_left (fun acc o -> acc + f o) 0 computed in
  Format.fprintf fmt
    "%-28s | %9d %9d %8d | %4d %4d %4d %5d | %9.2f %9.2f %9.2f %9.2f@."
    (if cached = 0 then Printf.sprintf "TOTAL (%d ops)" (List.length computed)
     else Printf.sprintf "TOTAL (%d ops, %d cached)" (List.length computed) cached)
    (sumi (fun o -> o.isl.ilp_solves))
    (sumi (fun o -> o.infl.ilp_solves))
    (sumi bb_nodes)
    (sumi (fun o -> o.infl.sibling_moves))
    (sumi (fun o -> o.infl.ancestor_backtracks))
    (sumi (fun o -> o.infl.scc_separations))
    (sumi (fun o -> if o.infl.influence_abandoned then 1 else 0))
    (sum (fun o -> o.sched_s))
    (sum (fun o -> o.tree_s))
    (sum (fun o -> o.lower_s))
    (sum (fun o -> o.sim_s))

let geomean_line fmt per_network =
  let geomean rows =
    Eval.geomean
      (List.map
         (fun (_, results) ->
           let a = Eval.aggregate results in
           Eval.speedup a.Eval.isl_ms a.infl_ms)
         rows)
  in
  let in_table1 (name, _) =
    List.exists (fun (n : Ops.Networks.t) -> n.Ops.Networks.name = name) Ops.Networks.table1
  in
  let paper = List.filter in_table1 per_network in
  Format.fprintf fmt
    "geomean infl speedup over isl across Table I's %d networks: %.2fx (paper: 1.7x)@."
    (List.length paper) (geomean paper);
  Format.fprintf fmt "geomean infl speedup over isl across all %d suites: %.2fx@."
    (List.length per_network) (geomean per_network)
