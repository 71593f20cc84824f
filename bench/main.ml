(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, plus ablations of the design choices called out in DESIGN.md.

   Usage:  dune exec bench/main.exe [--stats] [--trace FILE] [--stats-json FILE]
                                    [target...]
   Targets: table1 table2 fig2 fig3 ablation-weights ablation-scenarios
            ablation-backtrack all (default: all); an unknown target exits 2

   Every target compiles through the Harness.Pipeline stages; Table II
   uses the suite runner and renderer of `akg_repro network --all`.

   --stats prints the observability counter table and the pass-timing
   report after the last target; --trace FILE records the structured
   decision trace of the whole run as JSON (see EXPERIMENTS.md for the
   schema); --stats-json FILE dumps the counters and span totals
   machine-readably through Obs.Export. *)

module P = Harness.Pipeline

let fmt = Format.std_formatter

let section title = Format.fprintf fmt "@.=== %s ===@." title

(* ------------------------------------------------------------------ *)
(* Table I                                                              *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table I";
  Harness.Tables.table1 fmt

(* ------------------------------------------------------------------ *)
(* Table II (+ headline geomean)                                        *)
(* ------------------------------------------------------------------ *)

(* The suite runner and renderer of [akg_repro network --all]. *)
let table2 () =
  section "Table II";
  let per_network =
    List.map
      (fun (n : Ops.Networks.t) ->
        (n.Ops.Networks.name, Service.Batch.evaluate_suite (Lazy.force n.Ops.Networks.ops)))
      Ops.Networks.all
  in
  Harness.Tables.table2 fmt per_network;
  Harness.Tables.geomean_line fmt per_network

(* ------------------------------------------------------------------ *)
(* Fig. 2: the running example in its three versions                    *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  section "Fig. 2 - running example";
  let k = Ops.Classics.fig2 ~n:64 () in
  Format.fprintf fmt "(a) initial fused operator:@.%a@." Ir.Kernel.pp k;
  (* the vector pass runs at threshold 0 (not the version table's 2048):
     at n = 64 it would otherwise leave the fused nest unvectorized *)
  let compile version k =
    Polyhedra.Solver_memo.scoped @@ fun () ->
    let influence = P.tree version k in
    let sched, _ = P.schedule ?influence k in
    (sched, P.lower ~vec_min_parallel:0 version sched k)
  in
  let show label version =
    let sched, c = compile version k in
    Format.fprintf fmt "%s@.%a%s@.simulated: %a@.@." label Scheduling.Schedule.pp
      sched (Codegen.Cuda.emit c) Gpusim.Sim.pp (P.simulate c)
  in
  show "(b) isl-like baseline (split nests, D strided innermost):" P.Isl;
  show "(c) influenced (fused, innermost vectorizable j):" P.Infl;
  Format.fprintf fmt
    "note: at this toy size the performance model favours (b) - the fused@.\
     form exposes only N = 64 threads while the split nests expose N*N;@.\
     the reproduction target for Fig. 2 is the code structure (fusion,@.\
     guard, forvec, coalesced D) and the per-request metrics above, not@.\
     the simulated time.  Table II measures realistic operators.@.";
  (* semantic validation at a size the interpreter enumerates quickly *)
  let small = Ops.Classics.fig2 ~n:8 () in
  Format.fprintf fmt "semantics check (n=8, infl vs original): %s@."
    (if P.interpret small (snd (compile P.Infl small)) = Ok () then "MATCH" else "MISMATCH")

(* ------------------------------------------------------------------ *)
(* Fig. 3: the influence constraint tree for the running example        *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  section "Fig. 3 - influence constraint tree";
  let k = Ops.Classics.fig2 ~n:64 () in
  Format.fprintf fmt "%a@." Scheduling.Influence.pp (Vectorizer.Treegen.influence_for k);
  List.iter
    (fun set ->
      Format.fprintf fmt "scenario set:@.";
      List.iter (fun sc -> Format.fprintf fmt "  %a@." Vectorizer.Scenario.pp sc) set)
    (Vectorizer.Treegen.scenario_sets k)

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

(* A small representative suite: one operator per category. *)
let rep_suite () =
  [ ("permute", Ops.Netgen.build ~name:"abl_permute" (Ops.Netgen.Permute_bad { a = 64; b = 196; c = 64 }));
    ("ew", Ops.Netgen.build ~name:"abl_ew" (Ops.Netgen.Ew_chain { stmts = 3; rows = 1024; cols = 256 }));
    ("bias", Ops.Netgen.build ~name:"abl_bias" (Ops.Netgen.Bias_act { rows = 1024; cols = 256 }));
    ("transpose", Ops.Netgen.build ~name:"abl_tr" (Ops.Netgen.Transpose2d { rows = 1024; cols = 256 }));
    ("reduce", Ops.Netgen.build ~name:"abl_red" (Ops.Netgen.Reduce_rows { rows = 4096; cols = 64 }))
  ]

(* The ablations build the vectorizer's tree themselves ([tree]): under
   other weights, or with its first n root branches. *)
let schedule ?tree version kernel =
  Polyhedra.Solver_memo.scoped @@ fun () ->
  let influence =
    match tree with Some tree -> Some (tree kernel) | None -> P.tree version kernel
  in
  P.schedule ?influence kernel

let time_us ?tree version kernel =
  let sched, stats = schedule ?tree version kernel in
  (Gpusim.Sim.time_us (P.simulate (P.lower version sched kernel)), stats)

let isl_us kernel = fst (time_us P.Isl kernel)

let ablation_weights () =
  section "Ablation - weight vector W (Section V: w1=5, w2=3, rest 1)";
  let configs =
    [ ("paper (5,3,1,1,1)", Vectorizer.Costmodel.default_weights);
      ("swap w1/w2 (3,5,..)", { Vectorizer.Costmodel.default_weights with w1 = 3.0; w2 = 5.0 });
      ("uniform (1,1,1,1,1)", { Vectorizer.Costmodel.w1 = 1.; w2 = 1.; w3 = 1.; w4 = 1.; w5 = 1. });
      ("no vec terms (0,0,..)", { Vectorizer.Costmodel.w1 = 0.; w2 = 0.; w3 = 1.; w4 = 1.; w5 = 1. })
    ]
  in
  Format.fprintf fmt "%-24s" "config";
  List.iter (fun (n, _) -> Format.fprintf fmt " %10s" n) (rep_suite ());
  Format.fprintf fmt "   (infl speedup over isl)@.";
  List.iter
    (fun (label, weights) ->
      Format.fprintf fmt "%-24s" label;
      List.iter
        (fun (_, k) ->
          let t, _ = time_us ~tree:(Vectorizer.Treegen.influence_for ~weights) P.Infl k in
          Format.fprintf fmt " %10.2f" (isl_us k /. t))
        (rep_suite ());
      Format.fprintf fmt "@.")
    configs

let ablation_scenarios () =
  section "Ablation - influence-tree branch budget (paper: 8 scenarios)";
  Format.fprintf fmt "%-10s %-14s %-10s %-10s@." "branches" "geomean spdup" "siblings" "abandoned";
  List.iter
    (fun branches ->
      let tree k =
        Scheduling.Influence.select (List.init branches Fun.id)
          (Vectorizer.Treegen.influence_for k)
      in
      let speedups, sib, aband =
        List.fold_left
          (fun (sp, sib, ab) (_, k) ->
            let t, stats = time_us ~tree P.Infl k in
            ( isl_us k /. t :: sp,
              sib + stats.Scheduling.Scheduler.sibling_moves,
              ab + if stats.Scheduling.Scheduler.influence_abandoned then 1 else 0 ))
          ([], 0, 0) (rep_suite ())
      in
      Format.fprintf fmt "%-10d %-14.2f %-10d %-10d@." branches
        (Harness.Eval.geomean speedups) sib aband)
    [ 1; 2; 4; 8 ]

let ablation_backtrack () =
  section "Ablation - backtracking activations (Section IV-B: few expected)";
  Format.fprintf fmt "%-28s %6s %6s %6s %6s %6s %9s@." "operator" "solves" "sibl"
    "backtr" "bands" "scc" "abandoned";
  let show name k =
    let _, st = schedule P.Infl k in
    Format.fprintf fmt "%-28s %6d %6d %6d %6d %6d %9b@." name
      st.Scheduling.Scheduler.ilp_solves st.sibling_moves st.ancestor_backtracks
      st.band_ends st.scc_separations st.influence_abandoned
  in
  List.iter (fun (name, mk) -> show name (mk ())) Ops.Classics.all_small;
  List.iter (fun (name, k) -> show name k) (rep_suite ())

(* ------------------------------------------------------------------ *)

let targets =
  [ ("table1", table1);
    ("table2", table2);
    ("fig2", fig2);
    ("fig3", fig3);
    ("ablation-weights", ablation_weights);
    ("ablation-scenarios", ablation_scenarios);
    ("ablation-backtrack", ablation_backtrack)
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec split_flags stats trace stats_json rest = function
    | [] -> (stats, trace, stats_json, List.rev rest)
    | "--stats" :: r -> split_flags true trace stats_json rest r
    | "--trace" :: file :: r -> split_flags stats (Some file) stats_json rest r
    | "--stats-json" :: file :: r -> split_flags stats trace (Some file) rest r
    | [ ("--trace" | "--stats-json") as flag ] ->
      Format.eprintf "%s needs a FILE@." flag;
      exit 2
    | x :: r -> split_flags stats trace stats_json (x :: rest) r
  in
  let stats, trace, stats_json, requested = split_flags false None None [] args in
  if Option.is_some trace then Obs.Trace.enable ();
  let requested =
    match requested with
    | _ :: _ when not (List.mem "all" requested) -> requested
    | _ -> List.map fst targets
  in
  (* checked before anything runs *)
  (match List.filter (fun t -> not (List.mem_assoc t targets)) requested with
   | [] -> ()
   | unknown ->
     Format.eprintf "unknown target %s (available: %s)@." (String.concat ", " unknown)
       (String.concat ", " ("all" :: List.map fst targets));
     exit 2);
  List.iter (fun t -> (List.assoc t targets) ()) requested;
  if not (Obs.Export.write_run ~stats ?trace ?stats_json ()) then exit 1
