(* Differential suite for the sub-ILP scheduling fast path.

   The fast path's contract is exactness: for every kernel, under plain,
   vectorizer-influenced and tiling-influenced scheduling alike,
   `Fastpath_then_ilp produces
   bit-identical schedule rows to `Ilp_only — the candidate it commits
   is provably the ILP's own lexicographic minimum, and anything it is
   unsure about falls back to the exact solver.  This suite checks that
   contract over the classic operators, every network suite's operators
   and a 200-case fuzz corpus: identical rows, legality under both strategies, and agreeing
   failures (a kernel the exact solver cannot schedule must not be
   schedulable by the fast path, and vice versa).  It also pins that the
   fast path actually fires — a hit count of zero would mean the whole
   mechanism is dead code and the differential check vacuous — and that
   the infeasibility screen behind the fast path's validity rejects fires,
   so the comparison with `Ilp_only, which never screens, covers it. *)

let fuzz_seed = 42
let fuzz_count = 200

let hits = ref 0
let fallbacks = ref 0
let screened = ref 0

type outcome =
  | Sched of Scheduling.Schedule.t * Scheduling.Scheduler.stats
  | Failed of string

(* one scope per run: the strategies stay independent, the checks outside *)
let schedule_with ~strategy ?influence k =
  match
    Polyhedra.Solver_memo.scoped (fun () -> Harness.Pipeline.schedule ?influence ~strategy k)
  with
  | sched, stats -> Sched (sched, stats)
  | exception Scheduling.Scheduler.Failure_no_schedule msg -> Failed msg

let cost sched k =
  let compiled = Codegen.Compile.lower ~vectorize:false sched k in
  Gpusim.Sim.time_us (Gpusim.Sim.run compiled)

(* One kernel, one scheduling mode (with or without an influence tree):
   run both strategies and insist on agreement. *)
let check_mode ~what ?influence k =
  match
    ( schedule_with ~strategy:`Fastpath_then_ilp ?influence k,
      schedule_with ~strategy:`Ilp_only ?influence k )
  with
  | Failed _, Failed _ -> ()
  | Sched _, Failed msg ->
    Alcotest.failf "%s: fastpath schedules but exact ILP fails (%s)" what msg
  | Failed msg, Sched _ ->
    Alcotest.failf "%s: exact ILP schedules but fastpath fails (%s)" what msg
  | Sched (fast, stats), Sched (exact, exact_stats) ->
    hits := !hits + stats.Scheduling.Scheduler.fastpath_hits;
    fallbacks := !fallbacks + stats.Scheduling.Scheduler.fastpath_fallbacks;
    screened := !screened + stats.Scheduling.Scheduler.screened;
    Alcotest.(check int)
      (what ^ ": ilp-only run reports no fastpath activity")
      0 exact_stats.Scheduling.Scheduler.fastpath_hits;
    Alcotest.(check int)
      (what ^ ": ilp-only run screens nothing")
      0 exact_stats.Scheduling.Scheduler.screened;
    let deps = Deps.Analysis.dependences k in
    (match Scheduling.Legality.check fast k deps with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: fastpath schedule illegal: %s" what e);
    (* annotations (influence_branch, tile_sizes) are deposited per
       committed influence node, so they must agree too — a strategy that
       commits the same rows off a different branch would break the
       tiled column's cache coherence *)
    if
      List.sort compare fast.Scheduling.Schedule.annotations
      <> List.sort compare exact.Scheduling.Schedule.annotations
    then Alcotest.failf "%s: schedule annotations diverge" what;
    if Harness.Eval.rows_equal fast exact then
      () (* identical rows: the legality check above covers both *)
    else begin
      (match Scheduling.Legality.check exact k deps with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: ilp-only schedule illegal: %s" what e);
      (* exactness is claimed everywhere, so divergent rows are a failure
         outright — the simulated costs just make the report actionable *)
      Alcotest.failf "%s: schedules diverge (fastpath %.3fus vs exact %.3fus)" what
        (cost fast k) (cost exact k)
    end

let check_kernel ~name k =
  check_mode ~what:(name ^ "/isl") k;
  check_mode ~what:(name ^ "/infl")
    ~influence:(Vectorizer.Treegen.influence_for k)
    k;
  (* the tiling client injects through the same channel, so its trees
     get the same exactness guarantee — rows and tile_sizes annotations
     identical under both strategies *)
  check_mode ~what:(name ^ "/tiled")
    ~influence:(Scheduling.Tiling.influence_for k)
    k

let test_zoo () =
  List.iter (fun (name, mk) -> check_kernel ~name (mk ())) Ops.Classics.all;
  List.iter
    (fun (n : Ops.Networks.t) ->
      List.iter
        (fun (op, k) -> check_kernel ~name:(n.Ops.Networks.name ^ "/" ^ op) k)
        (Lazy.force n.Ops.Networks.ops))
    Ops.Networks.all

let test_fuzz_corpus () =
  for index = 0 to fuzz_count - 1 do
    let case = Fuzz.Generate.generate ~seed:fuzz_seed ~index () in
    match Fuzz.Case.to_kernel case with
    | Error _ -> () (* generator bugs are test_fuzz's business *)
    | Ok k -> check_kernel ~name:(Printf.sprintf "fuzz_%d_%d" fuzz_seed index) k
  done

let test_fastpath_fires () =
  (* runs after the differential sweeps have accumulated counts *)
  Alcotest.(check bool)
    (Printf.sprintf "fast path hit at least once (%d hits, %d fallbacks)" !hits
       !fallbacks)
    true (!hits > 0)

let test_screen_fires () =
  (* runs after the differential sweeps too *)
  Alcotest.(check bool)
    (Printf.sprintf "the screen decided at least one dimension (%d)" !screened)
    true (!screened > 0)

let () =
  Alcotest.run "fastpath"
    [ ( "differential",
        [ Alcotest.test_case "op zoo: fastpath = exact ILP" `Quick test_zoo;
          Alcotest.test_case "fuzz corpus: fastpath = exact ILP" `Quick
            test_fuzz_corpus;
          Alcotest.test_case "fast path fires" `Quick test_fastpath_fires;
          Alcotest.test_case "screen fires" `Quick test_screen_fires
        ] )
    ]
