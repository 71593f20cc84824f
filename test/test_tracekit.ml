(* Tests for the trace-analytics subsystem (lib/obs: Tracefile, Summary,
   Chrome, Export): golden structural fingerprints for fig2 and the LSTM
   suite, diff semantics (insensitive to wall-clock noise, sensitive to an
   injected scheduling change), Chrome trace-event export validity, and the
   trace-file envelope round trip.

   Golden regeneration: run with AKG_UPDATE_GOLDEN=<dir> to rewrite the
   committed fingerprints instead of comparing against them, e.g.
     AKG_UPDATE_GOLDEN=test/golden dune exec test/test_tracekit.exe *)

open Polyhedra

(* ------------------------------------------------------------------ *)
(* Trace capture helpers                                                *)
(* ------------------------------------------------------------------ *)

let trace_of f =
  Obs.reset_all ();
  Obs.Trace.enable ();
  (try f ()
   with e ->
     Obs.Trace.disable ();
     raise e);
  let t = Obs.Tracefile.of_live () in
  Obs.Trace.disable ();
  Obs.reset_all ();
  t

(* Same event stream as [akg_repro eval fig2 --trace ...]. *)
let fig2_trace () =
  trace_of (fun () ->
      ignore (Harness.Eval.evaluate_op ~name:"fig2" (Ops.Classics.fig2 ())))

(* Same event stream as [akg_repro network lstm --jobs N --trace ...]. *)
let lstm_trace ~jobs =
  trace_of (fun () ->
      ignore
        (Service.Batch.evaluate_suite ~jobs (Lazy.force Ops.Networks.lstm.Ops.Networks.ops)))

let fig2 = lazy (fig2_trace ())

(* ------------------------------------------------------------------ *)
(* Golden fingerprints                                                  *)
(* ------------------------------------------------------------------ *)

let check_golden name trace =
  let fp = Obs.Summary.of_trace trace in
  match Sys.getenv_opt "AKG_UPDATE_GOLDEN" with
  | Some dir ->
    let file = Filename.concat dir (name ^ ".fingerprint.json") in
    Obs.Summary.write_file file fp;
    Printf.printf "wrote %s\n%!" file
  | None -> (
    (* dune runtest runs in _build/default/test where the goldens sit in
       ./golden; a test binary run from the repo root sees them in
       test/golden *)
    let dir = if Sys.file_exists "golden" then "golden" else "test/golden" in
    let file = Filename.concat dir (name ^ ".fingerprint.json") in
    match Obs.Summary.load file with
    | Error e -> Alcotest.failf "cannot load golden %s: %s" file e
    | Ok golden ->
      let changes = Obs.Summary.diff golden fp in
      if changes <> [] then
        Alcotest.failf
          "fingerprint of %s drifted from %s:@\n%a@\n(if intended, rerun with \
           AKG_UPDATE_GOLDEN=test/golden to regenerate)"
          name file Obs.Summary.pp_changes changes)

let test_golden_fig2 () = check_golden "fig2" (Lazy.force fig2)
(* The pool merges worker traces deterministically: one golden for any
   job count. *)
let test_golden_lstm () = List.iter (fun jobs -> check_golden "lstm" (lstm_trace ~jobs)) [ 1; 2 ]

(* The tiling client's span and events must be part of the fingerprint:
   a harness run emits [tiling.tree] and reports the per-op [tiled] flag,
   so tiling regressions show up as golden drift. *)
let test_fingerprint_covers_tiling () =
  let fp = Obs.Summary.of_trace (Lazy.force fig2) in
  Alcotest.(check bool) "tiling.tree event fingerprinted" true
    (List.mem_assoc "tiling.tree" fp.Obs.Summary.kinds);
  let tiled_version =
    List.exists
      (fun e ->
        e.Obs.Tracefile.kind = "harness.version"
        && Obs.Json.member "version" (Obs.Json.Assoc e.Obs.Tracefile.fields)
           = Some (Obs.Json.String "tiled"))
      (Lazy.force fig2).Obs.Tracefile.events
  in
  Alcotest.(check bool) "tiled version traced" true tiled_version

(* ------------------------------------------------------------------ *)
(* Diff semantics                                                       *)
(* ------------------------------------------------------------------ *)

(* Two traces of the same revision fingerprint identically even though
   their wall-clock fields differ — this is the CLI's [diff] exit 0. *)
let test_diff_same_revision () =
  let a = Lazy.force fig2 in
  let b = fig2_trace () in
  let fa = Obs.Summary.of_trace a and fb = Obs.Summary.of_trace b in
  Alcotest.(check bool) "same revision is structurally equal" true
    (Obs.Summary.equal fa fb);
  Alcotest.(check (list string)) "diff is empty" []
    (List.map
       (fun c -> Format.asprintf "%a" Obs.Summary.pp_change c)
       (Obs.Summary.diff fa fb));
  (* the raw traces do carry timing, it is just ignored by the fingerprint *)
  Alcotest.(check bool) "raw traces carry timing fields" true
    (Obs.Tracefile.timing_totals a <> [])

let sched_trace ~force_sibling_move () =
  let k = Ops.Classics.fig2 () in
  let tree = Vectorizer.Treegen.influence_for k in
  let tree =
    if force_sibling_move then
      (* A constant-false constraint: the scheduler detects the
         contradiction when preparing the node and moves to its sibling —
         a purely structural scheduling change. *)
      Scheduling.Influence.node ~label:"infeasible"
        [ Constr.ge0 (Linexpr.const_int (-1)) ]
      :: tree
    else tree
  in
  trace_of (fun () ->
      Polyhedra.Solver_memo.scoped (fun () ->
          ignore (Scheduling.Scheduler.schedule ~influence:tree k)))

(* An injected scheduler change shows up as a non-empty structural diff
   naming the changed per-run fields — the CLI's [diff] exit 1. *)
let test_diff_injected_change () =
  let base = Obs.Summary.of_trace (sched_trace ~force_sibling_move:false ()) in
  let forced = Obs.Summary.of_trace (sched_trace ~force_sibling_move:true ()) in
  let changes = Obs.Summary.diff base forced in
  Alcotest.(check bool) "diff is non-empty" true (changes <> []);
  Alcotest.(check bool) "names the changed sibling_moves field" true
    (List.exists
       (fun c ->
         c.Obs.Summary.section = "schedules" && c.Obs.Summary.field = "sibling_moves")
       changes);
  let kind_count fp k =
    match List.assoc_opt k fp.Obs.Summary.kinds with Some n -> n | None -> 0
  in
  Alcotest.(check bool) "sibling-move events appear in the histogram" true
    (kind_count forced "scheduler.sibling_move" > kind_count base "scheduler.sibling_move")

(* ------------------------------------------------------------------ *)
(* Normalization                                                        *)
(* ------------------------------------------------------------------ *)

let rec has_timing = function
  | Obs.Json.Assoc l ->
    List.exists (fun (k, v) -> Obs.Tracefile.timing_field k || has_timing v) l
  | Obs.Json.List l -> List.exists has_timing l
  | _ -> false

let test_normalize () =
  let t = Lazy.force fig2 in
  let n = Obs.Tracefile.normalize t in
  Alcotest.(check int) "event count preserved" (List.length t.Obs.Tracefile.events)
    (List.length n.Obs.Tracefile.events);
  List.iter
    (fun e ->
      Alcotest.(check bool) "timestamps dropped" true (e.Obs.Tracefile.ts_us = None);
      Alcotest.(check bool)
        ("no timing fields left in " ^ e.Obs.Tracefile.kind)
        false
        (has_timing (Obs.Json.Assoc e.Obs.Tracefile.fields)))
    n.Obs.Tracefile.events;
  Alcotest.(check (list (pair string (float 0.)))) "normalized trace has no timing" []
    (Obs.Tracefile.timing_totals n);
  (* raw and normalized traces fingerprint alike *)
  Alcotest.(check bool) "fingerprint is normalization-invariant" true
    (Obs.Summary.equal (Obs.Summary.of_trace t) (Obs.Summary.of_trace n))

let test_timing_field () =
  List.iter
    (fun f -> Alcotest.(check bool) (f ^ " is timing") true (Obs.Tracefile.timing_field f))
    [ "dur_us"; "time_us"; "ts_us"; "sched_ms"; "tree_ms" ];
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " is structural") false (Obs.Tracefile.timing_field f))
    [ "bw_us"; "kernel"; "solves"; "ms"; "dur" ]

(* ------------------------------------------------------------------ *)
(* Envelope round trip and validation                                   *)
(* ------------------------------------------------------------------ *)

let test_tracefile_roundtrip () =
  Obs.reset_all ();
  Obs.Trace.enable ();
  Obs.Trace.emit "a.start" [ ("x", Obs.Json.Int 1) ];
  Obs.Trace.emit "a.solve" [ ("dur_us", Obs.Json.Float 3.5); ("rows", Obs.Json.Int 2) ];
  let live = Obs.Tracefile.of_live () in
  let file = Filename.temp_file "tracekit" ".json" in
  Obs.Trace.write_file file;
  Obs.Trace.disable ();
  Obs.reset_all ();
  (match Obs.Tracefile.load file with
   | Error e -> Alcotest.failf "load failed: %s" e
   | Ok t ->
     Alcotest.(check int) "version is current" Obs.Trace.version t.Obs.Tracefile.version;
     Alcotest.(check (list string)) "kinds preserved" [ "a.start"; "a.solve" ]
       (List.map (fun e -> e.Obs.Tracefile.kind) t.Obs.Tracefile.events);
     List.iter2
       (fun a b ->
         Alcotest.(check bool) ("fields preserved for " ^ a.Obs.Tracefile.kind) true
           (Obs.Json.equal
              (Obs.Json.Assoc a.Obs.Tracefile.fields)
              (Obs.Json.Assoc b.Obs.Tracefile.fields)))
       live.Obs.Tracefile.events t.Obs.Tracefile.events);
  Sys.remove file

let test_tracefile_validation () =
  let err j =
    match Obs.Tracefile.of_json j with
    | Ok _ -> Alcotest.failf "accepted invalid trace %s" (Obs.Json.to_string j)
    | Error _ -> ()
  in
  err (Obs.Json.Assoc [ ("schema", Obs.Json.String "nope") ]);
  err
    (Obs.Json.Assoc
       [ ("schema", Obs.Json.String "akg-repro-trace");
         ("version", Obs.Json.Int (Obs.Trace.version + 1));
         ("events", Obs.Json.List [])
       ]);
  err
    (Obs.Json.Assoc
       [ ("schema", Obs.Json.String "akg-repro-trace");
         ("version", Obs.Json.Int Obs.Trace.version);
         ("events", Obs.Json.List [ Obs.Json.Int 3 ])
       ]);
  (* a version-1 trace (no timestamps) still loads *)
  match
    Obs.Tracefile.of_json
      (Obs.Json.Assoc
         [ ("schema", Obs.Json.String "akg-repro-trace");
           ("version", Obs.Json.Int 1);
           ("events",
            Obs.Json.List
              [ Obs.Json.Assoc
                  [ ("seq", Obs.Json.Int 0); ("kind", Obs.Json.String "k");
                    ("v", Obs.Json.Int 1)
                  ]
              ])
         ])
  with
  | Error e -> Alcotest.failf "rejected valid v1 trace: %s" e
  | Ok t -> (
    match t.Obs.Tracefile.events with
    | [ e ] ->
      Alcotest.(check bool) "v1 events have no timestamp" true
        (e.Obs.Tracefile.ts_us = None);
      Alcotest.(check string) "kind" "k" e.Obs.Tracefile.kind
    | _ -> Alcotest.fail "expected one event")

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                            *)
(* ------------------------------------------------------------------ *)

let test_chrome_export () =
  match Obs.Chrome.of_tracefile (Lazy.force fig2) with
  | Obs.Json.List evs ->
    Alcotest.(check bool) "export is non-empty" true (evs <> []);
    let begins = Hashtbl.create 8 and ends = Hashtbl.create 8 in
    let bump h k = Hashtbl.replace h k (1 + try Hashtbl.find h k with Not_found -> 0) in
    List.iter
      (fun ev ->
        let str k =
          match Obs.Json.member k ev with
          | Some (Obs.Json.String s) -> s
          | _ -> Alcotest.failf "event lacks string %S: %s" k (Obs.Json.to_string ev)
        in
        let num k =
          match Obs.Json.member k ev with
          | Some (Obs.Json.Int _ | Obs.Json.Float _) -> ()
          | _ -> Alcotest.failf "event lacks number %S: %s" k (Obs.Json.to_string ev)
        in
        let ph = str "ph" and name = str "name" in
        Alcotest.(check bool) ("known phase " ^ ph) true
          (List.mem ph [ "X"; "B"; "E"; "i" ]);
        num "ts";
        (match (Obs.Json.member "pid" ev, Obs.Json.member "tid" ev) with
         | Some (Obs.Json.Int 1), Some (Obs.Json.Int 1) -> ()
         | _ -> Alcotest.fail "pid/tid must both be 1");
        if ph = "X" then num "dur";
        if ph = "B" then bump begins name;
        if ph = "E" then bump ends name)
      evs;
    Alcotest.(check bool) "has span pairs" true (Hashtbl.length begins > 0);
    Hashtbl.iter
      (fun name n ->
        Alcotest.(check int) ("balanced B/E for " ^ name) n
          (try Hashtbl.find ends name with Not_found -> 0))
      begins;
    Alcotest.(check int) "no stray E" (Hashtbl.length begins) (Hashtbl.length ends)
  | j -> Alcotest.failf "expected a JSON array, got %s" (Obs.Json.to_string j)

(* ------------------------------------------------------------------ *)
(* Fingerprint persistence and stats export                             *)
(* ------------------------------------------------------------------ *)

let test_fingerprint_roundtrip () =
  let fp = Obs.Summary.of_trace (Lazy.force fig2) in
  let file = Filename.temp_file "tracekit" ".fingerprint.json" in
  Obs.Summary.write_file file fp;
  (match Obs.Summary.load file with
   | Error e -> Alcotest.failf "load failed: %s" e
   | Ok fp' ->
     Alcotest.(check bool) "fingerprint file round-trips" true (Obs.Summary.equal fp fp'));
  Sys.remove file

let test_stats_export () =
  Obs.reset_all ();
  Obs.Counters.add (Obs.Counters.create "test.tracekit") 3;
  let j = Obs.Export.stats_json () in
  (match Obs.Json.member "schema" j with
   | Some (Obs.Json.String s) -> Alcotest.(check string) "schema" Obs.Export.schema_name s
   | _ -> Alcotest.fail "missing schema");
  (match Obs.Json.member "counters" j with
   | Some (Obs.Json.Assoc l) ->
     Alcotest.(check bool) "counter exported" true
       (List.assoc_opt "test.tracekit" l = Some (Obs.Json.Int 3))
   | _ -> Alcotest.fail "missing counters");
  Obs.reset_all ()

let () =
  Alcotest.run "tracekit"
    [ ( "golden",
        [ Alcotest.test_case "fig2 fingerprint" `Quick test_golden_fig2;
          Alcotest.test_case "lstm fingerprint" `Quick test_golden_lstm;
          Alcotest.test_case "covers tiling" `Quick test_fingerprint_covers_tiling
        ] );
      ( "diff",
        [ Alcotest.test_case "same revision is clean" `Quick test_diff_same_revision;
          Alcotest.test_case "injected change is named" `Quick test_diff_injected_change
        ] );
      ( "normalize",
        [ Alcotest.test_case "strips all timing" `Quick test_normalize;
          Alcotest.test_case "timing field classifier" `Quick test_timing_field
        ] );
      ( "envelope",
        [ Alcotest.test_case "write/load round trip" `Quick test_tracefile_roundtrip;
          Alcotest.test_case "validation" `Quick test_tracefile_validation
        ] );
      ( "export",
        [ Alcotest.test_case "chrome trace events" `Quick test_chrome_export;
          Alcotest.test_case "fingerprint round trip" `Quick test_fingerprint_roundtrip;
          Alcotest.test_case "stats json" `Quick test_stats_export
        ] )
    ]
