(* Tests for the autotuner (lib/tune): candidate and record JSON
   round-trips, store persistence and corruption handling, search
   determinism (including across --jobs), the tie-to-baseline
   no-regression guarantee, planted-optimum convergence on a rigged
   oracle, the --tuned fallback when no record exists, and the
   docs-vs-code weight quotation. *)

let classic name =
  match List.assoc_opt name Ops.Classics.all with
  | Some mk -> mk ()
  | None -> Alcotest.failf "missing classic operator %s" name

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "akg_tune_test_%d_%d" (Unix.getpid ()) !n)

let baseline_weights = Vectorizer.Weights.default_paper

(* ------------------------------------------------------------------ *)
(* Weights (the single source of truth)                                 *)
(* ------------------------------------------------------------------ *)

let test_weights () =
  Alcotest.(check string)
    "compact form" "(5,3,1,1,1)"
    (Vectorizer.Weights.to_compact_string baseline_weights);
  Alcotest.(check bool)
    "costmodel re-exports the same default" true
    (Vectorizer.Weights.equal baseline_weights Vectorizer.Costmodel.default_weights);
  (match Vectorizer.Weights.of_json (Vectorizer.Weights.to_json baseline_weights) with
   | Ok w ->
     Alcotest.(check bool) "json roundtrip" true (Vectorizer.Weights.equal w baseline_weights)
   | Error e -> Alcotest.fail e);
  Alcotest.(check bool)
    "of_json rejects missing fields" true
    (Result.is_error (Vectorizer.Weights.of_json (Obs.Json.Assoc [])))

(* The numbers the documentation quotes must be the numbers the code
   uses: EXPERIMENTS.md and TUNING.md both cite the paper default via
   its compact rendering, pinned here against the real constant. *)
let test_docs_quote_default_weights () =
  let read file =
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let quoted = Vectorizer.Weights.to_compact_string baseline_weights in
  List.iter
    (fun file ->
      Alcotest.(check bool)
        (Printf.sprintf "%s quotes %s" file quoted)
        true
        (contains (read file) quoted))
    [ "../EXPERIMENTS.md"; "../TUNING.md" ]

(* ------------------------------------------------------------------ *)
(* Candidates                                                           *)
(* ------------------------------------------------------------------ *)

let test_candidate_roundtrip () =
  let rng = Fuzz.Rng.make ~seed:7 ~index:0 in
  let cands =
    let rec go acc c n =
      if n = 0 then acc else go (c :: acc) (Tune.Candidate.mutate rng c) (n - 1)
    in
    go [] Tune.Candidate.baseline 32
  in
  List.iter
    (fun c ->
      match Tune.Candidate.of_json (Tune.Candidate.to_json c) with
      | Ok c' ->
        Alcotest.(check bool) "json roundtrip" true (Tune.Candidate.equal c c');
        Alcotest.(check string)
          "digest stable across roundtrip" (Tune.Candidate.digest c)
          (Tune.Candidate.digest c')
      | Error e -> Alcotest.fail e)
    cands;
  Alcotest.(check string)
    "baseline describes itself" "paper default"
    (Tune.Candidate.describe Tune.Candidate.baseline)

let test_influence_select () =
  let tree = Vectorizer.Treegen.influence_for (classic "fig2") in
  let n = List.length tree in
  Alcotest.(check bool) "fig2 has branches" true (n >= 2);
  Alcotest.(check int)
    "identity order keeps everything" n
    (List.length (Scheduling.Influence.select (List.init n Fun.id) tree));
  Alcotest.(check int)
    "subset keeps one" 1
    (List.length (Scheduling.Influence.select [ 0 ] tree));
  Alcotest.(check int)
    "out-of-range and repeats ignored" 1
    (List.length (Scheduling.Influence.select [ 99; 0; 0; -1 ] tree));
  Alcotest.(check int)
    "empty selection empties the tree" 0
    (List.length (Scheduling.Influence.select [] tree))

(* ------------------------------------------------------------------ *)
(* Records and the store                                                *)
(* ------------------------------------------------------------------ *)

let sample_record ?(tuned_us = 80.0) ?(candidate = Tune.Candidate.baseline) fp =
  { Tune.Record.fingerprint = fp;
    machine = Gpusim.Machine.v100.Gpusim.Machine.name;
    candidate;
    baseline_us = 100.0;
    tuned_us;
    seed = 42;
    beam = 4;
    rounds = 3;
    source_op = "fig2"
  }

let test_record_roundtrip () =
  let r = sample_record "abc123" in
  (match Tune.Record.of_json (Tune.Record.to_json r) with
   | Ok r' ->
     Alcotest.(check bool) "roundtrip" true (r = r');
     Alcotest.(check string) "digest stable" (Tune.Record.digest r) (Tune.Record.digest r')
   | Error e -> Alcotest.fail e);
  let bumped =
    match Tune.Record.to_json r with
    | Obs.Json.Assoc fields ->
      Obs.Json.Assoc
        (List.map
           (function
             | "format_version", _ -> ("format_version", Obs.Json.Int 999)
             | kv -> kv)
           fields)
    | _ -> Alcotest.fail "record json is not an object"
  in
  Alcotest.(check bool)
    "stale format rejected" true
    (Result.is_error (Tune.Record.of_json bumped));
  Alcotest.(check bool)
    "different candidates digest differently" false
    (Tune.Record.digest r
    = Tune.Record.digest
        (sample_record
           ~candidate:
             { Tune.Candidate.baseline with
               Tune.Candidate.order = Some [ 1; 0 ]
             }
           "abc123"))

let test_store_roundtrip () =
  let dir = fresh_dir () in
  let store = Tune.Store.open_ dir in
  let kernel = classic "fig2" in
  let fp = Tune.Fingerprint.of_kernel kernel in
  let machine = Gpusim.Machine.v100.Gpusim.Machine.name in
  Alcotest.(check bool)
    "empty store misses" true
    (Tune.Store.find store ~fingerprint:fp ~machine = None);
  let r = sample_record fp in
  Tune.Store.store store r;
  Alcotest.(check bool)
    "find returns the record" true
    (Tune.Store.find store ~fingerprint:fp ~machine = Some r);
  Alcotest.(check bool)
    "lookup by kernel fingerprints equally" true
    (Tune.Store.lookup store ~machine kernel = Some r);
  Alcotest.(check bool)
    "other machine misses" true
    (Tune.Store.lookup store ~machine:"a100-sxm4-40gb" kernel = None);
  let r2 = sample_record ~tuned_us:60.0 fp in
  Tune.Store.store store r2;
  Alcotest.(check bool)
    "re-store overwrites the slot" true
    (Tune.Store.find store ~fingerprint:fp ~machine = Some r2);
  Alcotest.(check int) "one file per slot" 1 (List.length (Tune.Store.records store));
  (* corrupt the file on disk: the next lookup degrades to a miss *)
  (match Sys.readdir dir with
   | [| file |] ->
     let oc = open_out (Filename.concat dir file) in
     output_string oc "{not json";
     close_out oc
   | _ -> Alcotest.fail "expected exactly one store file");
  Alcotest.(check bool)
    "corrupt record treated as absent" true
    (Tune.Store.find store ~fingerprint:fp ~machine = None)

let test_fingerprint_name_independent () =
  let k = classic "fig2" in
  let renamed = { k with Ir.Kernel.name = "renamed_fig2" } in
  Alcotest.(check string)
    "kernel name does not change the fingerprint"
    (Tune.Fingerprint.of_kernel k)
    (Tune.Fingerprint.of_kernel renamed);
  Alcotest.(check bool)
    "different kernels fingerprint differently" false
    (Tune.Fingerprint.of_kernel k = Tune.Fingerprint.of_kernel (classic "transpose_add"))

(* ------------------------------------------------------------------ *)
(* Search on a rigged oracle                                            *)
(* ------------------------------------------------------------------ *)

let measurement time_us =
  { Tune.Oracle.time_us; cycles = time_us *. 1e3; vec = true; tiled = false;
    influenced = true }

(* The planted optimum: w1 = 8 scores 10us, any other deviation from the
   baseline 50us, the baseline itself 100us.  The search must walk off
   the baseline and then find the planted point. *)
let rigged_oracle _kernel (c : Tune.Candidate.t) =
  if c.Tune.Candidate.weights.Vectorizer.Weights.w1 = 8.0 then Some (measurement 10.0)
  else if Tune.Candidate.equal c Tune.Candidate.baseline then Some (measurement 100.0)
  else Some (measurement 50.0)

let test_planted_optimum () =
  let corpus = [ ("fig2", classic "fig2") ] in
  let config = { Tune.Search.beam = 4; rounds = 24; seed = 42 } in
  let result = Tune.Search.run ~oracle:rigged_oracle config corpus in
  match result.Tune.Search.outcomes with
  | [ oc ] ->
    Alcotest.(check (float 1e-9))
      "found the planted optimum" 10.0
      oc.Tune.Search.best_m.Tune.Oracle.time_us;
    Alcotest.(check (float 1e-9))
      "optimum has w1 = 8" 8.0
      oc.Tune.Search.best.Tune.Candidate.weights.Vectorizer.Weights.w1
  | l -> Alcotest.failf "expected one outcome, got %d" (List.length l)

(* Ties go to the baseline: under an oracle that scores everything
   equally, every record must come out exactly baseline. *)
let test_ties_go_to_baseline () =
  let flat _ _ = Some (measurement 42.0) in
  let corpus = [ ("fig2", classic "fig2") ] in
  let config = { Tune.Search.beam = 3; rounds = 3; seed = 5 } in
  let result = Tune.Search.run ~oracle:flat config corpus in
  List.iter
    (fun (r : Tune.Record.t) ->
      Alcotest.(check bool)
        "flat oracle yields the baseline candidate" true
        (Tune.Candidate.equal r.Tune.Record.candidate Tune.Candidate.baseline);
      Alcotest.(check (float 1e-9)) "no movement" r.Tune.Record.baseline_us
        r.Tune.Record.tuned_us)
    (Tune.Search.to_records result)

(* A candidate that fails on some operator must never become that
   operator's record, however well it does elsewhere. *)
let test_failing_candidate_never_wins () =
  let crashy _ (c : Tune.Candidate.t) =
    if Tune.Candidate.equal c Tune.Candidate.baseline then Some (measurement 100.0)
    else None
  in
  let corpus = [ ("fig2", classic "fig2") ] in
  let config = { Tune.Search.beam = 2; rounds = 2; seed = 1 } in
  let result = Tune.Search.run ~oracle:crashy config corpus in
  match result.Tune.Search.outcomes with
  | [ oc ] ->
    Alcotest.(check bool)
      "baseline wins when everything else fails" true
      (Tune.Candidate.equal oc.Tune.Search.best Tune.Candidate.baseline)
  | l -> Alcotest.failf "expected one outcome, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Search on the real oracle                                            *)
(* ------------------------------------------------------------------ *)

let small_corpus () = [ ("fig2", classic "fig2"); ("transpose_add", classic "transpose_add") ]

let test_search_deterministic_across_jobs () =
  let config = { Tune.Search.beam = 2; rounds = 2; seed = 42 } in
  let run jobs = Tune.Search.to_records (Tune.Search.run ~jobs config (small_corpus ())) in
  let a = run 1 and b = run 4 in
  Alcotest.(check int) "same record count" (List.length a) (List.length b);
  List.iter2
    (fun ra rb ->
      Alcotest.(check string)
        "identical records at any jobs value" (Tune.Record.digest ra)
        (Tune.Record.digest rb))
    a b;
  (* the no-regression guarantee on real measurements *)
  List.iter
    (fun (r : Tune.Record.t) ->
      Alcotest.(check bool)
        "tuned never slower than baseline" true
        (r.Tune.Record.tuned_us <= r.Tune.Record.baseline_us))
    a

let test_search_cache_reuse () =
  let dir = fresh_dir () in
  let cache = Service.Cache.open_ dir in
  let config = { Tune.Search.beam = 2; rounds = 2; seed = 42 } in
  let corpus = small_corpus () in
  let cold = Tune.Search.to_records (Tune.Search.run ~cache config corpus) in
  let evals0 = Obs.Counters.find "tune.evals" in
  let warm = Tune.Search.to_records (Tune.Search.run ~cache config corpus) in
  Alcotest.(check int)
    "warm search recomputes nothing" 0
    (Obs.Counters.find "tune.evals" - evals0);
  List.iter2
    (fun ra rb ->
      Alcotest.(check string)
        "cache does not change the result" (Tune.Record.digest ra) (Tune.Record.digest rb))
    cold warm

(* ------------------------------------------------------------------ *)
(* The --tuned evaluation path                                          *)
(* ------------------------------------------------------------------ *)

(* the semantic slice of an op_result: simulated times and outcomes, not
   the wall-clock observations (those differ run to run by nature) *)
let semantics (r : Harness.Eval.op_result) =
  ( r.Harness.Eval.op_name,
    (r.isl_us, r.tvm_us, r.novec_us, r.infl_us),
    (r.influenced, r.vec) )

let test_tuned_missing_record_falls_back () =
  let suite = [ ("fig2", classic "fig2") ] in
  let plain = Service.Batch.evaluate_suite suite in
  (* a lookup that never finds a record must reproduce the fixed-weight
     run exactly *)
  let with_empty = Service.Batch.evaluate_suite ~tuned:(fun _ _ -> None) suite in
  Alcotest.(check bool)
    "identical results" true
    (List.map semantics plain = List.map semantics with_empty);
  (* and so must a record whose candidate is the baseline *)
  let baseline_tuning _ _ =
    Some
      { Service.Batch.digest = "test-digest";
        tuning = { Harness.Pipeline.weights = baseline_weights; order = None }
      }
  in
  let with_baseline = Service.Batch.evaluate_suite ~tuned:baseline_tuning suite in
  List.iter2
    (fun (a : Harness.Eval.op_result) (b : Harness.Eval.op_result) ->
      Alcotest.(check (float 1e-9)) "same infl time" a.Harness.Eval.infl_us
        b.Harness.Eval.infl_us)
    plain with_baseline

(* The tile-mode oracle mirrors the harness's tiled column: the tiling
   influence tree lands, the backend pass fires, and the cache keys stay
   disjoint from the vectorizer-mode keys of the same candidate. *)
let test_oracle_tile_mode () =
  let kernel = Ops.Classics.stencil2d ~n:16 ~m:32 () in
  let machine = Gpusim.Machine.v100 in
  (match Tune.Oracle.compute ~tile:true ~machine kernel Tune.Candidate.baseline with
  | None -> Alcotest.fail "tile-mode oracle evaluation failed"
  | Some m ->
    Alcotest.(check bool) "tile mode applies tiling" true m.Tune.Oracle.tiled;
    Alcotest.(check bool) "tile mode never vectorizes" false m.Tune.Oracle.vec;
    Alcotest.(check bool) "influence accepted" true m.Tune.Oracle.influenced);
  let infl = Tune.Oracle.key ~machine kernel Tune.Candidate.baseline in
  let tiled = Tune.Oracle.key ~tile:true ~machine kernel Tune.Candidate.baseline in
  Alcotest.(check bool)
    "tile and vectorizer measurements never collide" false
    (Service.Key.digest infl = Service.Key.digest tiled)

(* Failures are deterministic, so they are cached like successes.  An
   empty iteration domain makes the lowering raise on every run, so it is
   stored as failed (the branch a Scheduler.Failure_no_schedule verdict
   takes too). *)
let test_oracle_caches_only_deterministic_failures () =
  let cache = Service.Cache.open_ (fresh_dir ()) in
  let machine = Gpusim.Machine.v100 and c = Tune.Candidate.baseline in
  let empty =
    Ir.Kernel.make ~name:"empty_domain"
      ~tensors:[ Ir.Build.tensor "A" [ 8 ] ]
      ~stmts:
        [ Ir.Stmt.make ~name:"S" ~iters:[ "i" ]
            ~domain:(Ir.Build.rect_from [ ("i", 0, -1) ])
            ~write:(Ir.Build.access "A" [ "i" ]) ~rhs:(Ir.Expr.Const 1.0)
        ]
      ()
  in
  Alcotest.(check bool) "deterministic failure" true
    (Tune.Oracle.measure ~cache ~machine empty c = None);
  Alcotest.(check bool) "cached as failed" true
    (Tune.Oracle.find cache (Tune.Oracle.key ~machine empty c) = Some None)

(* One oracle evaluation analyses the kernel once and hands the list to
   every stage, in both tree modes. *)
let test_oracle_analyses_once () =
  let machine = Gpusim.Machine.v100 in
  List.iter
    (fun (name, kernel, tile) ->
      let before = Obs.Counters.find "deps.analyses" in
      (match Tune.Oracle.compute ~tile ~machine kernel Tune.Candidate.baseline with
       | None -> Alcotest.failf "%s: oracle evaluation failed" name
       | Some _ -> ());
      Alcotest.(check int) (name ^ ": one analysis") 1
        (Obs.Counters.find "deps.analyses" - before))
    [ ("fig2", classic "fig2", false);
      ("stencil2d tiled", Ops.Classics.stencil2d ~n:16 ~m:32 (), true)
    ]

let test_tuned_changes_cache_key () =
  let kernel = classic "fig2" in
  let machine = Gpusim.Machine.v100 in
  let plain = Service.Batch.eval_key ~machine ~name:"fig2" kernel in
  let tuned =
    Service.Batch.eval_key
      ~tuned:
        { Service.Batch.digest = "abc";
          tuning = { Harness.Pipeline.weights = baseline_weights; order = None }
        }
      ~machine ~name:"fig2" kernel
  in
  Alcotest.(check bool)
    "tuned and fixed-weight entries never collide" false
    (Service.Key.digest plain = Service.Key.digest tuned)

let () =
  Alcotest.run "tune"
    [ ( "weights",
        [ Alcotest.test_case "single source of truth" `Quick test_weights;
          Alcotest.test_case "docs quote the default" `Quick
            test_docs_quote_default_weights
        ] );
      ( "candidate",
        [ Alcotest.test_case "json roundtrip" `Quick test_candidate_roundtrip;
          Alcotest.test_case "influence select" `Quick test_influence_select
        ] );
      ( "record",
        [ Alcotest.test_case "json roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "store roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "fingerprint" `Quick test_fingerprint_name_independent
        ] );
      ( "search",
        [ Alcotest.test_case "planted optimum" `Quick test_planted_optimum;
          Alcotest.test_case "ties go to baseline" `Quick test_ties_go_to_baseline;
          Alcotest.test_case "failures never win" `Quick test_failing_candidate_never_wins;
          Alcotest.test_case "deterministic across jobs" `Quick
            test_search_deterministic_across_jobs;
          Alcotest.test_case "cache reuse" `Quick test_search_cache_reuse
        ] );
      ( "tuned",
        [ Alcotest.test_case "missing record falls back" `Quick
            test_tuned_missing_record_falls_back;
          Alcotest.test_case "oracle tile mode" `Quick test_oracle_tile_mode;
          Alcotest.test_case "oracle analyses once" `Quick test_oracle_analyses_once;
          Alcotest.test_case "only deterministic failures cached" `Quick
            test_oracle_caches_only_deterministic_failures;
          Alcotest.test_case "distinct cache keys" `Quick test_tuned_changes_cache_key
        ] )
    ]
