(* Cross-entry-point differential test: the same (operator, version,
   machine) must give the same schedule, code and time through every entry
   point that compiles it — Table II evaluation (Harness.Eval), the compile
   service (Service.Serve) and the differential fuzzer (Fuzz.Check).  All
   of them run the Harness.Pipeline stages; this test fails as soon as one
   of them re-wires the sequence differently. *)

module P = Harness.Pipeline
module E = Harness.Eval
module J = Obs.Json

let eval_us (r : E.op_result) = function
  | P.Isl -> r.E.isl_us
  | P.Novec -> r.E.novec_us
  | P.Infl -> r.E.infl_us
  | P.Tiled -> r.E.tiled_us

let handler ops =
  Service.Serve.make_handler ~find_op:(fun name -> List.assoc_opt name ops) ()

(* One serve reply for (op, version name), as its JSON fields. *)
let serve h ~op name =
  let line = J.to_string (J.Assoc [ ("op", J.String op); ("version", J.String name) ]) in
  match J.of_string (Service.Serve.handle_line h line) with
  | Error e -> Alcotest.failf "%s %s: unparseable reply: %s" op name e
  | Ok reply -> (
    match J.member "status" reply with
    | Some (J.String "ok") -> reply
    | _ -> Alcotest.failf "%s %s: %s" op name (J.to_string reply))

let float_field reply k =
  match J.member k reply with
  | Some (J.Float f) -> f
  | Some (J.Int i) -> float_of_int i
  | _ -> Alcotest.failf "reply lacks %s" k

let string_field reply k =
  match J.member k reply with
  | Some (J.String s) -> s
  | _ -> Alcotest.failf "reply lacks %s" k

let same_us what ~op version expected actual =
  if not (Float.equal expected actual) then
    Alcotest.failf "%s %s: %s gives %.17g us, eval gives %.17g us" op (P.name version)
      what actual expected

(* Every zoo operator under isl/novec/infl/tiled: eval = serve.
   The infl time of 7 reduce operators (r50_reduce_011 among them) depends
   on the version table's vector-pass threshold: 11.89/12.03 us with it,
   21.19/21.42 us without. *)
let test_zoo_times () =
  let machine = Gpusim.Machine.v100 in
  let checked = ref 0 in
  List.iter
    (fun (n : Ops.Networks.t) ->
      let ops = Lazy.force n.Ops.Networks.ops in
      let h = handler ops in
      List.iter
        (fun (op, kernel) ->
          let r = E.evaluate_op ~machine ~name:op kernel in
          List.iter
            (fun v ->
              same_us "serve" ~op v (eval_us r v)
                (float_field (serve h ~op (P.name v)) "time_us");
              incr checked)
            P.versions)
        ops)
    Ops.Networks.all;
  Alcotest.(check bool) "every zoo operator checked" true (!checked >= 4 * 200)

(* The small classics: the schedule rows Fuzz.Check validates are the rows
   Pipeline.run (serve, the CLI) produces, the fuzzer's verdict is clean,
   and serve's cpu C is byte-equal to Eval.evaluate_cpu_op's. *)
let test_small_classics () =
  let ops = List.map (fun (name, mk) -> (name, mk ())) Ops.Classics.all_small in
  let h = handler ops in
  List.iter
    (fun (op, kernel) ->
      let fuzz_rows = ref [] in
      let perturb v s =
        fuzz_rows := (v, s) :: !fuzz_rows;
        s
      in
      (match Fuzz.Check.run ~mutate:(Fuzz.Check.Reschedule perturb) kernel with
       | Ok () -> ()
       | Error f -> Alcotest.failf "%s: %a" op Fuzz.Check.pp_failure f);
      (* versions with the same influence client share one schedule *)
      let pipeline_rows = Hashtbl.create 3 in
      List.iter
        (fun v ->
          let client = (P.spec v).P.client in
          if not (Hashtbl.mem pipeline_rows client) then
            Hashtbl.add pipeline_rows client (P.run v (P.operator kernel)).P.sched;
          match List.assoc_opt v !fuzz_rows with
          | None -> Alcotest.failf "%s %s: the fuzzer never scheduled it" op (P.name v)
          | Some s ->
            if not (E.rows_equal s (Hashtbl.find pipeline_rows client)) then
              Alcotest.failf "%s %s: fuzzer and pipeline rows differ" op (P.name v))
        P.versions;
      let r = E.evaluate_op ~name:op kernel in
      List.iter
        (fun v ->
          same_us "serve" ~op v (eval_us r v)
            (float_field (serve h ~op (P.name v)) "time_us"))
        P.versions;
      let _, source = E.evaluate_cpu_op ~name:op kernel in
      Alcotest.(check string)
        (op ^ ": serve cpu C = evaluate_cpu_op C")
        source
        (string_field (serve h ~op P.cpu_name) "source"))
    ops

(* One version through the stages: its schedule, AST and CUDA text and
   its scheduler statistics, without the solver work a memo hit skips
   (nodes); and the lowering.  The shared tests below compare these
   outside any scope and inside one. *)
let compile ?vec_min_parallel kernel v =
  let influence = P.tree v kernel in
  let sched, stats = P.schedule ?influence kernel in
  let c = P.lower ?vec_min_parallel v sched kernel in
  ( ( Scheduling.Schedule.to_string sched,
      Codegen.Ast.to_string c.Codegen.Compile.ast,
      Codegen.Cuda.emit c,
      { stats with bb_nodes = 0 } ),
    c )

let compiled what expected actual =
  let sched, ast, cuda, stats = expected and sched', ast', cuda', stats' = actual in
  Alcotest.(check string) (what ^ ": schedule") sched sched';
  Alcotest.(check string) (what ^ ": AST") ast ast';
  Alcotest.(check string) (what ^ ": CUDA") cuda cuda';
  if stats <> stats' then Alcotest.failf "%s: scheduler stats differ" what

let analyses () = Obs.Counters.find "deps.analyses"

(* Shared solver memo: the isl, infl and tiled versions of one kernel
   compiled in one scope, in either order, equal those compiled outside
   any scope, where each stage analyses the kernel on its own; the scope
   analyses it once.  Isl, infl and tiled cover the three scheduling
   clients, the vector pass and the tiling pass; [vec_min_parallel] 0
   lets the vector pass fire on tiny kernels. *)
let memo_versions = [ P.Isl; P.Infl; P.Tiled ]

let check_memo ?vec_min_parallel name kernel =
  let fresh = List.map (fun v -> fst (compile ?vec_min_parallel kernel v)) memo_versions in
  List.iter
    (fun (label, order) ->
      let before = analyses () in
      let shared =
        Polyhedra.Solver_memo.scoped (fun () ->
            List.map (fun v -> (v, fst (compile ?vec_min_parallel kernel v))) order)
      in
      let what = Printf.sprintf "%s (%s)" name label in
      Alcotest.(check int) (what ^ ": one analysis") (before + 1) (analyses ());
      List.iter2
        (fun v expected -> compiled (what ^ " " ^ P.name v) expected (List.assoc v shared))
        memo_versions fresh)
    [ ("shared", memo_versions); ("shared, reversed", List.rev memo_versions) ]

let fuzz_kernels () =
  List.init 40 (fun index ->
      match Fuzz.Case.to_kernel (Fuzz.Generate.generate ~seed:42 ~index ()) with
      | Error m -> Alcotest.failf "fuzz case %d: %s" index m
      | Ok k -> (Printf.sprintf "fuzz 42/%d" index, k))

let test_shared_analysis () =
  List.iter (fun (name, mk) -> check_memo name (mk ())) Ops.Classics.all;
  List.iter (fun (name, k) -> check_memo ~vec_min_parallel:0 name k) (fuzz_kernels ())

(* StencilZoo's isl, infl and tiled schedules share ILPs (12 answered
   in a [network StencilZoo] pass). *)
let test_shared_memo () =
  let hits () = Obs.Counters.find "scheduler.ilp_cache_hits" in
  let hits0 = hits () in
  List.iter
    (fun (name, k) -> check_memo name k)
    (Lazy.force Ops.Networks.stencilzoo.Ops.Networks.ops);
  (* otherwise the comparison above never exercised a shared entry *)
  Alcotest.(check bool) "some ILP answered across schedules" true (hits () > hits0)

(* The solver memo changes no answer: every version run through
   [Pipeline.run] (which opens a scope and analyses the kernel once), and
   all four composed by hand in one shared scope as [Eval.evaluate_op]
   does, give the schedules, ASTs, CUDA and simulated times of the same
   stages composed outside any scope, where no table answers anything.
   fig2, the LSTM suite and StencilZoo. *)
let memo_hit_counters =
  [ "simplex.memo_hits"; "fm.memo_hits"; "scheduler.farkas_memo_hits";
    "scheduler.ilp_cache_hits"; "gpusim.memo_hits"; "deps.memo_hits" ]

let test_solver_memo_invisible () =
  let hits () = List.map (fun c -> (c, Obs.Counters.find c)) memo_hit_counters in
  let total () = List.fold_left (fun n (_, h) -> n + h) 0 (hits ()) in
  let simulated kernel v =
    let r, c = compile kernel v in
    (r, Gpusim.Sim.time_us (P.simulate c))
  in
  let all kernel () = List.map (simulated kernel) P.versions in
  let kernels =
    ("fig2", Ops.Classics.fig2 ())
    :: Lazy.force Ops.Networks.lstm.Ops.Networks.ops
    @ Lazy.force Ops.Networks.stencilzoo.Ops.Networks.ops
  in
  let total0 = total () in
  List.iter
    (fun (name, kernel) ->
      let before = hits () in
      let fresh = all kernel () in
      Alcotest.(check (list (pair string int))) (name ^ ": no memo outside a scope") before
        (hits ());
      let shared = Polyhedra.Solver_memo.scoped (all kernel) in
      List.iter2
        (fun v ((expected, us), (in_scope, us')) ->
          let what = name ^ " " ^ P.name v in
          let analyses0 = analyses () in
          let p = P.run v (P.operator kernel) in
          Alcotest.(check int) (what ^ ": Pipeline.run analyses once") (analyses0 + 1)
            (analyses ());
          compiled (what ^ " (Pipeline.run)") expected
            ( Scheduling.Schedule.to_string p.P.sched,
              Codegen.Ast.to_string p.P.compiled.Codegen.Compile.ast,
              Codegen.Cuda.emit p.P.compiled, { p.P.stats with bb_nodes = 0 } );
          (match p.P.backend with
           | P.Simulated r -> same_us "Pipeline.run" ~op:name v us (Gpusim.Sim.time_us r)
           | P.Emitted _ -> Alcotest.failf "%s: expected a simulation" what);
          compiled (what ^ " (one shared scope)") expected in_scope;
          same_us "one shared scope" ~op:name v us us')
        P.versions (List.combine fresh shared))
    kernels;
  Alcotest.(check bool) "the memo answered some calls" true (total () > total0)

(* One operator for every version, and for each version on a GPU and a
   CPU profile, gives exactly what a fresh operator per run gives: the
   same schedule, statistics, AST, dependences and simulated time or C.
   The reused operator analyses its kernel once and builds one vectorizer
   tree.  The classics and the first 50 cases of fuzz seed 42. *)
let test_operator_reuse () =
  let machines = [ Gpusim.Machine.v100; Gpusim.Machine.avx2_8core ] in
  let observed (p : P.output) =
    ( Scheduling.Schedule.to_string p.P.sched,
      p.P.stats,
      Codegen.Ast.to_string p.P.compiled.Codegen.Compile.ast,
      List.length p.P.deps,
      match p.P.backend with
      | P.Simulated r -> Printf.sprintf "%h us" (Gpusim.Sim.time_us r)
      | P.Emitted source -> source )
  in
  let trees () = Obs.Counters.find "vectorizer.trees_built" in
  let kernels =
    List.map (fun (name, mk) -> (name, mk ())) Ops.Classics.all
    @ List.init 50 (fun index ->
          match Fuzz.Case.to_kernel (Fuzz.Generate.generate ~seed:42 ~index ()) with
          | Error m -> Alcotest.failf "fuzz case %d: %s" index m
          | Ok k -> (Printf.sprintf "fuzz 42/%d" index, k))
  in
  List.iter
    (fun (name, kernel) ->
      let op = P.operator kernel in
      let analyses0 = analyses () and trees0 = trees () in
      List.iter
        (fun machine ->
          List.iter
            (fun v ->
              let reused = P.run ~machine v op in
              let fresh = P.run ~machine v (P.operator kernel) in
              if observed reused <> observed fresh then
                Alcotest.failf "%s %s on %s: a reused operator differs from a fresh one" name
                  (P.name v) machine.Gpusim.Machine.name)
            P.versions)
        machines;
      (* the fresh operators analysed once per run, and built novec's and
         infl's trees on each machine *)
      let runs = List.length machines * List.length P.versions in
      Alcotest.(check int) (name ^ ": analyses") (analyses0 + 1 + runs) (analyses ());
      Alcotest.(check int) (name ^ ": vectorizer trees") (trees0 + 1 + (2 * List.length machines))
        (trees ()))
    kernels

(* The --stats table's branch-and-bound nodes cover all three schedules
   of an operator (isl 1 node, infl 2, tiled 4); sched(ms) is the
   operator's scheduling time (7 ms). *)
let test_stats_sum_three_schedules () =
  let stats nodes =
    { Scheduling.Scheduler.ilp_solves = 0; bb_nodes = nodes; loop_dims = 0;
      scalar_dims = 0; coincidence_failures = 0; band_ends = 0; sibling_moves = 0;
      ancestor_backtracks = 0; scc_separations = 0; influence_abandoned = false;
      fastpath_hits = 0; fastpath_fallbacks = 0; fastpath_validity_rejects = 0;
      screened = 0 }
  in
  let r =
    { E.op_name = "op"; isl_us = 1.0; tvm_us = 1.0; novec_us = 1.0; infl_us = 1.0;
      tiled_us = 1.0; influenced = false; vec = false; tiled = false;
      obs =
        Some
          { E.isl = stats 1; infl = stats 2; tiled = stats 4; sched_s = 7e-3;
            tree_s = 0.0; lower_s = 0.0; sim_s = 0.0 }
    }
  in
  let fields table =
    match String.split_on_char '|' table with
    | _ :: ilp :: _ :: times :: _ ->
      let words s = List.filter (( <> ) "") (String.split_on_char ' ' (String.trim s)) in
      (List.nth (words ilp) 2, List.hd (words times))
    | _ -> Alcotest.failf "unexpected stats row %S" table
  in
  let row = Format.asprintf "%a" Harness.Tables.stats_row r in
  Alcotest.(check (pair string string)) "row: bb-nodes, sched(ms)" ("7", "7.00") (fields row);
  let total =
    List.nth (String.split_on_char '\n' (Format.asprintf "%a" Harness.Tables.stats_table [ r ])) 2
  in
  Alcotest.(check (pair string string)) "total: bb-nodes, sched(ms)" ("7", "7.00") (fields total)

(* The per-op sim(ms) column covers every simulation evaluate_op runs:
   the isl, novec, infl and tiled kernels as well as TVM's.  It is read
   from the operator's gpusim.run spans, so it equals their total. *)
let test_sim_s_covers_all_simulations () =
  let kernel = Ops.Classics.fig2 () in
  let r, capture = Obs.scoped (fun () -> E.evaluate_op ~name:"fig2" kernel) in
  let simulated =
    List.fold_left
      (fun acc (path, _, total) ->
        if Filename.basename path = "gpusim.run" then acc +. total else acc)
      0.0 (Obs.spans capture)
  in
  Obs.merge capture;
  Alcotest.(check bool)
    (Printf.sprintf "sim_s %.3f ms = gpusim.run %.3f ms" ((Option.get r.E.obs).E.sim_s *. 1e3)
       (simulated *. 1e3))
    true
    (simulated > 0.0 && (Option.get r.E.obs).E.sim_s = simulated)

(* Table II compiles through [Pipeline.run] on one operator: three
   schedules and one vectorizer tree per [evaluate_op], infl taking
   novec's schedule, and the row the stages gave when [evaluate_op]
   composed them itself (times pinned as hex floats). *)
let test_table2_takes_operator_schedule () =
  let counters =
    [ "pipeline.schedule_reuses"; "scheduler.schedules"; "vectorizer.trees_built" ]
  in
  let read () = List.map Obs.Counters.find counters in
  let zoo name = List.assoc name (Lazy.force Ops.Networks.stencilzoo.Ops.Networks.ops) in
  List.iter
    (fun (name, kernel, expected, flags) ->
      let before = read () in
      let r = E.evaluate_op ~name kernel in
      Alcotest.(check (list int))
        (name ^ ": reuses, schedules, trees")
        (List.map2 ( + ) [ 1; 3; 1 ] before)
        (read ());
      List.iter2
        (fun (label, us) expected ->
          if not (Float.equal us expected) then
            Alcotest.failf "%s %s: %h us, pinned %h us" name label us expected)
        [ ("isl", r.E.isl_us); ("tvm", r.E.tvm_us); ("novec", r.E.novec_us);
          ("infl", r.E.infl_us); ("tiled", r.E.tiled_us) ]
        expected;
      Alcotest.(check (triple bool bool bool))
        (name ^ ": influenced, vec, tiled")
        flags
        (r.E.influenced, r.E.vec, r.E.tiled))
    [ ( "fig2",
        Ops.Classics.fig2 (),
        [ 0x1.3de55796174cfp+4; 0x1.6617cb39fde4fp+4; 0x1.fd6b6f5add295p+9;
          0x1.0e9c8bae0f057p+8; 0x1.3de55796174cfp+4 ],
        (true, true, false) );
      ( "zoo_layernorm_004",
        zoo "zoo_layernorm_004",
        [ 0x1.2533ba1ac9ad1p+9; 0x1.aea2c629c1cbdp+7; 0x1.2533ba1ac9ad1p+9;
          0x1.2533ba1ac9ad1p+9; 0x1.2533ba1ac9ad1p+9 ],
        (false, false, false) )
    ]

let test_version_table () =
  List.iter
    (fun v ->
      Alcotest.(check bool) (P.name v ^ " round-trips") true (P.of_name (P.name v) = Some v))
    P.versions;
  Alcotest.(check (list string))
    "names" [ "isl"; "novec"; "infl"; "tiled" ] (List.map P.name P.versions);
  Alcotest.(check (list string))
    "accepted names" [ "isl"; "novec"; "infl"; "tiled"; "cpu" ] P.names;
  Alcotest.(check bool) "cpu is not a version" true (P.of_name P.cpu_name = None);
  Alcotest.(check bool) "unknown name" true (P.of_name "tvm" = None);
  Alcotest.(check bool) "unknown name unresolved" true
    (P.resolve "tvm" ~machine:Gpusim.Machine.v100 = None);
  (* the machine picks the backend; cpu is infl as C on a CPU profile *)
  let open Gpusim.Machine in
  List.iter
    (fun (name, machine, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s on %s" name machine.name)
        true
        (P.resolve name ~machine = Some expected))
    [ ("tiled", v100, (P.Tiled, v100));
      ("isl", avx2_8core, (P.Isl, avx2_8core));
      ("cpu", avx2_8core, (P.Infl, avx2_8core));
      ("cpu", v100, (P.Infl, scalar_1core));
      ("cpu", a100, (P.Infl, scalar_1core))
    ]

let () =
  Alcotest.run "pipeline"
    [ ( "entry-points",
        [ Alcotest.test_case "version table" `Quick test_version_table;
          Alcotest.test_case "small classics" `Quick test_small_classics;
          Alcotest.test_case "shared analysis" `Slow test_shared_analysis;
          Alcotest.test_case "shared memo" `Slow test_shared_memo;
          Alcotest.test_case "solver memo changes nothing" `Slow test_solver_memo_invisible;
          Alcotest.test_case "a reused operator changes nothing" `Slow test_operator_reuse;
          Alcotest.test_case "stats sum three schedules" `Quick test_stats_sum_three_schedules;
          Alcotest.test_case "sim_s covers every simulation" `Quick
            test_sim_s_covers_all_simulations;
          Alcotest.test_case "Table II takes the operator's schedule" `Quick
            test_table2_takes_operator_schedule;
          Alcotest.test_case "zoo: eval = serve" `Slow test_zoo_times
        ] )
    ]
