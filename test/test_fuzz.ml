(* Tests for the differential fuzzing subsystem: generator determinism and
   structural validity, replay-file round trips, shrinking, the clean
   differential sweep, and the broken-scheduler canary that proves the
   oracle can actually say no. *)

open Fuzz

(* ------------------------------------------------------------------ *)
(* generator                                                            *)
(* ------------------------------------------------------------------ *)

let test_generator_deterministic () =
  for index = 0 to 19 do
    let a = Generate.generate ~seed:7 ~index () in
    let b = Generate.generate ~seed:7 ~index () in
    Alcotest.(check bool) (Printf.sprintf "case %d replays" index) true (Case.equal a b)
  done;
  let base = Generate.generate ~seed:7 ~index:0 () in
  Alcotest.(check bool) "stream varies across indices" true
    (List.exists
       (fun index -> not (Case.equal base (Generate.generate ~seed:7 ~index ())))
       [ 1; 2; 3; 4; 5 ])

let test_generator_valid () =
  (* every generated case must convert to a kernel whose accesses stay in
     bounds — otherwise differential failures would be noise *)
  for index = 0 to 49 do
    let case = Generate.generate ~seed:11 ~index () in
    match Case.to_kernel case with
    | Error e -> Alcotest.failf "case %d does not convert: %s" index e
    | Ok k -> (
      match Ir.Kernel.validate_bounds k with
      | Ok () -> ()
      | Error e -> Alcotest.failf "case %d leaves bounds: %s" index e)
  done

let test_json_roundtrip () =
  for index = 0 to 19 do
    let case = Generate.generate ~seed:3 ~index () in
    match Case.of_json (Case.to_json case) with
    | Error e -> Alcotest.failf "case %d does not parse back: %s" index e
    | Ok c ->
      Alcotest.(check bool) (Printf.sprintf "case %d round-trips" index) true
        (Case.equal case c)
  done

(* ------------------------------------------------------------------ *)
(* shrinking                                                            *)
(* ------------------------------------------------------------------ *)

let test_shrink_reaches_minimum () =
  (* a predicate that only cares about the statement count must be driven
     to the smallest case satisfying it *)
  let rec find index =
    let case = Generate.generate ~seed:13 ~index () in
    if List.length case.Case.stmts >= 3 then case else find (index + 1)
  in
  let case = find 0 in
  let still_fails c = List.length c.Case.stmts >= 2 in
  let shrunk, steps = Shrink.minimize ~still_fails case in
  Alcotest.(check int) "minimal statement count" 2 (List.length shrunk.Case.stmts);
  Alcotest.(check bool) "took at least one step" true (steps > 0);
  (* candidates keep cases convertible *)
  Alcotest.(check bool) "shrunk case still converts" true
    (match Case.to_kernel shrunk with Ok _ -> true | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* the differential loop                                                *)
(* ------------------------------------------------------------------ *)

let test_clean_sweep () =
  Obs.reset_all ();
  let report = run ~seed:5 ~count:12 () in
  Alcotest.(check int) "no failures on the healthy pipeline" 0
    (List.length report.failures);
  Alcotest.(check int) "cases counted" 12 (Obs.Counters.find "fuzz.cases");
  Alcotest.(check int) "failures counted" 0 (Obs.Counters.find "fuzz.failures")

let test_stage_names () =
  List.iter
    (fun stage ->
      Alcotest.(check bool) (Check.stage_name stage) true
        (Check.stage_of_name (Check.stage_name stage) = Some stage))
    Check.[ Convert; Schedule; Legality; Lower; Structure; Emit; Semantics; Simulate ];
  Alcotest.(check bool) "unknown name" true (Check.stage_of_name "bogus" = None)

let test_replay_roundtrip () =
  (* seed 5 cases are verified clean by [test_clean_sweep] *)
  let case = Generate.generate ~seed:5 ~index:0 () in
  let failure =
    { Check.version = Harness.Pipeline.Infl; stage = Check.Semantics; message = "synthetic" }
  in
  let file = Filename.temp_file "akg_fuzz_case" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      save_case ~file ~seed:5 ~index:0 ~failure case;
      (match load_case file with
       | Error e -> Alcotest.fail e
       | Ok (c, f) ->
         Alcotest.(check bool) "case preserved" true (Case.equal case c);
         Alcotest.(check bool) "failure record preserved" true (f = failure));
      match replay file with
      | Error e -> Alcotest.fail e
      | Ok (_, result) ->
        Alcotest.(check bool) "healthy pipeline passes the replay" true
          (result = Ok ()))

(* Replay files written while the C checks were their own "cpu" version
   still load: the C checks now run on the infl lowering and report as
   infl. *)
let test_replay_cpu_compiler () =
  let case = Generate.generate ~seed:5 ~index:0 () in
  let failure =
    { Check.version = Harness.Pipeline.Infl; stage = Check.Emit; message = "synthetic" }
  in
  let file = Filename.temp_file "akg_fuzz_case" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      save_case ~file ~seed:5 ~index:0 ~failure case;
      let ic = open_in_bin file in
      let doc = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let legacy =
        Str.global_replace (Str.regexp_string {|"compiler":"infl"|}) {|"compiler":"cpu"|} doc
      in
      Alcotest.(check bool) "legacy record written" true (legacy <> doc);
      let oc = open_out_bin file in
      output_string oc legacy;
      close_out oc;
      match load_case file with
      | Error e -> Alcotest.fail e
      | Ok (c, f) ->
        Alcotest.(check bool) "case preserved" true (Case.equal case c);
        Alcotest.(check bool) "cpu loads as infl" true (f = failure))

(* Negate the last loop row of a schedule: reverses the innermost loop,
   which is illegal whenever that loop carries a dependence. *)
let negate_last_loop (sched : Scheduling.Schedule.t) =
  let is_loop (r : Scheduling.Schedule.row) =
    match r.Scheduling.Schedule.kind with
    | Scheduling.Schedule.Loop _ -> true
    | Scheduling.Schedule.Scalar -> false
  in
  let _, last =
    List.fold_left
      (fun (i, best) r -> (i + 1, if is_loop r then Some i else best))
      (0, None) sched.Scheduling.Schedule.rows
  in
  match last with
  | None -> sched
  | Some li ->
    { sched with
      Scheduling.Schedule.rows =
        List.mapi
          (fun i (r : Scheduling.Schedule.row) ->
            if i = li then
              { r with
                Scheduling.Schedule.exprs =
                  List.map
                    (fun (s, e) -> (s, Polyhedra.Linexpr.neg e))
                    r.Scheduling.Schedule.exprs
              }
            else r)
          sched.Scheduling.Schedule.rows
    }

let test_broken_scheduler_caught () =
  (* the acceptance canary: a deliberately broken scheduler must be caught
     and every counterexample shrunk to at most 3 statements *)
  let perturb _version sched = negate_last_loop sched in
  let report = run ~seed:42 ~count:30 ~perturb () in
  Alcotest.(check bool) "at least one case caught" true (report.failures <> []);
  List.iter
    (fun (fr : failure_report) ->
      Alcotest.(check bool)
        (Printf.sprintf "case %d shrunk to <= 3 statements" fr.index)
        true
        (List.length fr.shrunk.Case.stmts <= 3))
    report.failures

let test_broken_tiler_caught () =
  (* the tiling acceptance canary: an off-by-one in the backend tiling
     pass must surface as a tiled-version failure — and only as a
     tiled-version failure, never misattributed to isl/novec/infl whose
     lowering does not run the faulty pass *)
  let report = run ~seed:42 ~count:30 ~tile_fault:Codegen.Tiling.Off_by_one () in
  Alcotest.(check bool) "at least one case caught" true (report.failures <> []);
  List.iter
    (fun (fr : failure_report) ->
      Alcotest.(check string)
        (Printf.sprintf "case %d fails in the tiled version" fr.index)
        "tiled"
        (Harness.Pipeline.name fr.failure.Check.version);
      Alcotest.(check bool)
        (Printf.sprintf "case %d shrunk to <= 3 statements" fr.index)
        true
        (List.length fr.shrunk.Case.stmts <= 3))
    report.failures

let test_max_tile_size_sweep () =
  (* the --max-tile-size toggle must not break the clean sweep: capping
     the proposed tile shapes only changes which schedules get tiled *)
  let report = run ~seed:5 ~count:12 ~max_tile_size:2 () in
  Alcotest.(check int) "no failures with capped tiles" 0 (List.length report.failures)

(* ------------------------------------------------------------------ *)
(* interpreter edge-case inputs                                         *)
(* ------------------------------------------------------------------ *)

let test_randomize_covers_specials () =
  let k = Ops.Classics.fig2 ~n:8 () in
  let mem = Interp.randomize k in
  let has p = Hashtbl.fold (fun _ a acc -> acc || Array.exists p a) mem false in
  Alcotest.(check bool) "negative zero present" true
    (has (fun x -> Float.equal x (-0.0)));
  Alcotest.(check bool) "subnormal present" true
    (has (fun x -> x <> 0.0 && Float.abs x < Float.min_float));
  (* and determinism is preserved *)
  let m2 = Interp.randomize k in
  Alcotest.(check bool) "still deterministic" true (Interp.equal mem m2)

let () =
  Alcotest.run "fuzz"
    [ ( "generate",
        [ Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "valid kernels" `Quick test_generator_valid;
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip
        ] );
      ("shrink", [ Alcotest.test_case "reaches minimum" `Quick test_shrink_reaches_minimum ]);
      ( "differential",
        [ Alcotest.test_case "clean sweep" `Slow test_clean_sweep;
          Alcotest.test_case "stage names" `Quick test_stage_names;
          Alcotest.test_case "replay roundtrip" `Quick test_replay_roundtrip;
          Alcotest.test_case "replay of a cpu failure" `Quick test_replay_cpu_compiler;
          Alcotest.test_case "broken scheduler caught" `Slow test_broken_scheduler_caught;
          Alcotest.test_case "broken tiler caught" `Slow test_broken_tiler_caught;
          Alcotest.test_case "max tile size sweep" `Slow test_max_tile_size_sweep
        ] );
      ( "interp",
        [ Alcotest.test_case "randomize specials" `Quick test_randomize_covers_specials ] )
    ]
