(* Tests for the observability layer (lib/obs): counter semantics, span
   nesting, JSON round-tripping, trace emission, and determinism of the
   scheduler's counters across identical runs. *)

let reset () = Obs.reset_all ()

(* ------------------------------------------------------------------ *)
(* Counters                                                             *)
(* ------------------------------------------------------------------ *)

let test_counter_monotone () =
  reset ();
  let c = Obs.Counters.create ~doc:"test counter" "test.mono" in
  Alcotest.(check int) "starts at zero" 0 (Obs.Counters.value c);
  Obs.Counters.incr c;
  Obs.Counters.incr c;
  Obs.Counters.add c 5;
  Alcotest.(check int) "accumulates" 7 (Obs.Counters.value c);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Obs.Counters.add: negative amount")
    (fun () -> Obs.Counters.add c (-1));
  Alcotest.(check int) "unchanged after rejected add" 7 (Obs.Counters.value c)

let test_counter_reset_and_find () =
  reset ();
  let c = Obs.Counters.create "test.reset" in
  Obs.Counters.add c 3;
  Alcotest.(check int) "find by name" 3 (Obs.Counters.find "test.reset");
  Alcotest.(check int) "find missing is zero" 0 (Obs.Counters.find "no.such.counter");
  Obs.Counters.reset_all ();
  Alcotest.(check int) "reset zeroes value" 0 (Obs.Counters.value c);
  (* the handle stays registered and usable after reset *)
  Obs.Counters.incr c;
  Alcotest.(check int) "handle live after reset" 1 (Obs.Counters.find "test.reset")

let test_counter_idempotent_create () =
  reset ();
  let a = Obs.Counters.create "test.same" in
  let b = Obs.Counters.create "test.same" in
  Obs.Counters.incr a;
  Obs.Counters.incr b;
  Alcotest.(check int) "same name shares state" 2 (Obs.Counters.value a)

let test_counter_snapshot_sorted () =
  reset ();
  Obs.Counters.add (Obs.Counters.create "test.b") 2;
  Obs.Counters.add (Obs.Counters.create "test.a") 1;
  let snap =
    List.filter (fun (n, _) -> n = "test.a" || n = "test.b") (Obs.Counters.snapshot ())
  in
  Alcotest.(check (list (pair string int)))
    "sorted by name" [ ("test.a", 1); ("test.b", 2) ] snap

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  reset ();
  let seen_depth = ref (-1) in
  Obs.Span.with_ "outer" (fun () ->
      Obs.Span.with_ "inner" (fun () -> seen_depth := Obs.Span.depth ());
      Obs.Span.with_ "inner" (fun () -> ()));
  Alcotest.(check int) "depth inside nested span" 2 !seen_depth;
  Alcotest.(check int) "depth after exit" 0 (Obs.Span.depth ());
  let report = Obs.Span.report () in
  let count path =
    match List.find_opt (fun (p, _, _) -> p = path) report with
    | Some (_, n, _) -> n
    | None -> 0
  in
  Alcotest.(check int) "outer counted once" 1 (count "outer");
  Alcotest.(check int) "inner path nests under outer" 2 (count "outer/inner");
  Alcotest.(check int) "no bare inner bucket" 0 (count "inner")

let test_span_exception_safe () =
  reset ();
  (try Obs.Span.with_ "boom" (fun () -> failwith "expected") with Failure _ -> ());
  Alcotest.(check int) "stack popped after exception" 0 (Obs.Span.depth ());
  match Obs.Span.report () with
  | [ ("boom", 1, t) ] -> Alcotest.(check bool) "time recorded" true (t >= 0.)
  | r -> Alcotest.failf "unexpected report (%d entries)" (List.length r)

(* ------------------------------------------------------------------ *)
(* JSON                                                                 *)
(* ------------------------------------------------------------------ *)

let json_roundtrip j =
  match Obs.Json.of_string (Obs.Json.to_string j) with
  | Ok j' -> Obs.Json.equal j j'
  | Error e -> Alcotest.failf "parse error: %s" e

let test_json_roundtrip () =
  let cases =
    [ Obs.Json.Null; Obs.Json.Bool true; Obs.Json.Bool false; Obs.Json.Int 0;
      Obs.Json.Int (-42); Obs.Json.Int max_int; Obs.Json.Float 0.1;
      Obs.Json.Float 1e-7; Obs.Json.Float (-3.25); Obs.Json.Float 1.000000000000001;
      Obs.Json.String ""; Obs.Json.String "plain";
      Obs.Json.String "quotes \" and \\ and \ncontrol \t chars";
      Obs.Json.String "unicode \xc3\xa9\xe2\x82\xac";
      Obs.Json.List []; Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Null ];
      Obs.Json.Assoc [];
      Obs.Json.Assoc
        [ ("a", Obs.Json.Int 1);
          ("nested", Obs.Json.Assoc [ ("l", Obs.Json.List [ Obs.Json.Bool false ]) ])
        ]
    ]
  in
  List.iteri
    (fun i j ->
      Alcotest.(check bool)
        (Printf.sprintf "case %d round-trips" i)
        true (json_roundtrip j))
    cases

let test_json_non_finite () =
  (* non-finite floats are not representable in JSON; they serialize as null *)
  Alcotest.(check string) "nan is null" "null" (Obs.Json.to_string (Obs.Json.Float Float.nan));
  Alcotest.(check string) "inf is null" "null"
    (Obs.Json.to_string (Obs.Json.Float Float.infinity))

let test_json_parse_errors () =
  let bad = [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ] in
  List.iter
    (fun s ->
      match Obs.Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" s
      | Error _ -> ())
    bad

let test_json_number_grammar () =
  (* strict RFC 8259 numbers: each of these deviates from the grammar in
     exactly one way and must be rejected *)
  List.iter
    (fun s ->
      match Obs.Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted non-RFC-8259 number %S" s
      | Error _ -> ())
    [ "+5" (* leading plus *); "01" (* leading zero *); "1." (* no fraction digit *);
      "5e" (* no exponent digit *); "1e+" (* sign without digit *);
      ".5" (* no integer part *); "1-2" (* interior minus *); "-" (* sign alone *);
      "--1"; "1.2.3"; "0x10" (* hex *); "1_000" (* separators *) ];
  List.iter
    (fun (s, expected) ->
      match Obs.Json.of_string s with
      | Ok j ->
        Alcotest.(check bool) (s ^ " parses to expected value") true
          (Obs.Json.equal j expected)
      | Error e -> Alcotest.failf "rejected valid number %S: %s" s e)
    [ ("0", Obs.Json.Int 0); ("-0", Obs.Json.Int 0); ("10", Obs.Json.Int 10);
      ("-42", Obs.Json.Int (-42)); ("0.5", Obs.Json.Float 0.5);
      ("1e5", Obs.Json.Float 1e5); ("1E+5", Obs.Json.Float 1e5);
      ("123e-7", Obs.Json.Float 123e-7); ("-3.25", Obs.Json.Float (-3.25));
      (string_of_int max_int, Obs.Json.Int max_int);
      (string_of_int min_int, Obs.Json.Int min_int) ]

let test_json_unicode_escapes () =
  let parses_to s expected =
    match Obs.Json.of_string s with
    | Ok (Obs.Json.String got) -> Alcotest.(check string) s expected got
    | Ok j -> Alcotest.failf "%S parsed to non-string %s" s (Obs.Json.to_string j)
    | Error e -> Alcotest.failf "%S rejected: %s" s e
  in
  parses_to "\"\\u0041\"" "A";
  parses_to "\"\\u00e9\"" "\xc3\xa9" (* é, 2-byte UTF-8 *);
  parses_to "\"\\u20ac\"" "\xe2\x82\xac" (* €, 3-byte UTF-8 *);
  (* surrogate pair: U+1F600, 4-byte UTF-8 *)
  parses_to "\"\\ud83d\\ude00\"" "\xf0\x9f\x98\x80";
  (* a high surrogate must be followed by a low one *)
  match Obs.Json.of_string "\"\\ud83d\"" with
  | Ok _ -> Alcotest.fail "accepted unpaired high surrogate"
  | Error _ -> ()

(* Printer->parser fuzz round trip over arbitrary nested values.  Floats
   are kept finite (non-finite serializes as null by design) and keys
   printable; strings are arbitrary bytes. *)
let json_gen =
  let open QCheck2.Gen in
  let finite_float = map (fun f -> if Float.is_finite f then f else 0.) float in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [ return Obs.Json.Null; map (fun b -> Obs.Json.Bool b) bool;
               map (fun i -> Obs.Json.Int i) int;
               map (fun f -> Obs.Json.Float f) finite_float;
               map (fun s -> Obs.Json.String s) string
             ]
         in
         if n = 0 then leaf
         else
           oneof
             [ leaf;
               map (fun l -> Obs.Json.List l) (list_size (int_bound 4) (self (n / 2)));
               map
                 (fun l -> Obs.Json.Assoc l)
                 (list_size (int_bound 4)
                    (pair (string_size ~gen:printable (int_bound 8)) (self (n / 2))))
             ])

let prop_json_roundtrip =
  QCheck2.Test.make ~name:"of_string (to_string v) = Ok v" ~count:500
    ~print:Obs.Json.to_string json_gen (fun v ->
      match Obs.Json.of_string (Obs.Json.to_string v) with
      | Ok v' -> Obs.Json.equal v v'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Trace                                                                *)
(* ------------------------------------------------------------------ *)

let test_trace_disabled_by_default () =
  reset ();
  Alcotest.(check bool) "disabled" false (Obs.Trace.enabled ());
  Obs.Trace.emitf "never" (fun () -> Alcotest.fail "thunk forced while disabled");
  Alcotest.(check int) "nothing recorded" 0 (Obs.Trace.length ())

let test_trace_emission_order () =
  reset ();
  Obs.Trace.enable ();
  Obs.Trace.emit "first" [ ("x", Obs.Json.Int 1) ];
  Obs.Trace.emitf "second" (fun () -> [ ("y", Obs.Json.Bool true) ]);
  let evs = Obs.Trace.events () in
  Obs.Trace.disable ();
  Alcotest.(check int) "two events" 2 (List.length evs);
  Alcotest.(check (list int)) "sequential seq" [ 0; 1 ]
    (List.map (fun e -> e.Obs.Trace.seq) evs);
  Alcotest.(check (list string)) "kinds in order" [ "first"; "second" ]
    (List.map (fun e -> e.Obs.Trace.kind) evs)

let test_trace_json_roundtrip () =
  reset ();
  Obs.Trace.enable ();
  Obs.Trace.emit "a" [ ("n", Obs.Json.Int 3); ("s", Obs.Json.String "v") ];
  Obs.Trace.emit "b" [ ("f", Obs.Json.Float 0.5) ];
  let doc = Obs.Trace.to_json () in
  Obs.Trace.disable ();
  Alcotest.(check bool) "trace document round-trips" true (json_roundtrip doc);
  (match Obs.Json.member "schema" doc with
   | Some (Obs.Json.String "akg-repro-trace") -> ()
   | _ -> Alcotest.fail "missing schema tag");
  match Obs.Json.member "events" doc with
  | Some (Obs.Json.List evs) -> Alcotest.(check int) "both events present" 2 (List.length evs)
  | _ -> Alcotest.fail "missing events list"

let test_trace_write_file () =
  reset ();
  Obs.Trace.enable ();
  Obs.Trace.emit "k" [ ("v", Obs.Json.Int 7) ];
  let file = Filename.temp_file "obs_trace" ".json" in
  Obs.Trace.write_file file;
  Obs.Trace.disable ();
  let ic = open_in file in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  Sys.remove file;
  match Obs.Json.of_string contents with
  | Error e -> Alcotest.failf "file is not valid JSON: %s" e
  | Ok doc -> (
    match Obs.Json.member "events" doc with
    | Some (Obs.Json.List [ ev ]) -> (
      match Obs.Json.member "kind" ev with
      | Some (Obs.Json.String "k") -> ()
      | _ -> Alcotest.fail "event kind not preserved")
    | _ -> Alcotest.fail "expected exactly one event in file")

(* ------------------------------------------------------------------ *)
(* Pipeline integration: counters move, and deterministically            *)
(* ------------------------------------------------------------------ *)

let scheduler_counters () =
  [ "scheduler.ilp_solves"; "scheduler.influence_nodes_visited";
    "scheduler.sibling_moves"; "scheduler.ancestor_backtracks";
    "scheduler.scc_separations"; "scheduler.band_ends";
    "scheduler.fastpath_hits"; "scheduler.fastpath_fallbacks";
    "scheduler.fastpath_validity_rejects"; "ilp.solves";
    "ilp.bb_nodes"; "simplex.solves"; "simplex.pivots"
  ]
  |> List.map (fun n -> (n, Obs.Counters.find n))

let schedule ?config ?influence k =
  Polyhedra.Solver_memo.scoped (fun () -> Scheduling.Scheduler.schedule ?config ?influence k)

let test_scheduler_counters_move () =
  reset ();
  let k = Ops.Classics.cast_transpose ~n:8 ~m:8 () in
  (* the exact solver's counters need `Ilp_only: under the default
     strategy this kernel schedules entirely on the fast path. *)
  let config =
    { Scheduling.Scheduler.default_config with strategy = `Ilp_only }
  in
  let _ = schedule ~config k in
  Alcotest.(check bool) "ilp solves counted" true (Obs.Counters.find "ilp.solves" > 0);
  Alcotest.(check bool) "simplex pivots counted" true
    (Obs.Counters.find "simplex.pivots" > 0);
  Alcotest.(check bool) "scheduler solves counted" true
    (Obs.Counters.find "scheduler.ilp_solves" > 0);
  Alcotest.(check bool) "no fastpath under ilp-only" true
    (Obs.Counters.find "scheduler.fastpath_hits" = 0);
  let _ = schedule k in
  Alcotest.(check bool) "fastpath hits counted under the default" true
    (Obs.Counters.find "scheduler.fastpath_hits" > 0)

let test_scheduler_counters_deterministic () =
  let run () =
    reset ();
    let k = Ops.Classics.cast_transpose ~n:8 ~m:8 () in
    let tree = Vectorizer.Treegen.influence_for k in
    let _ = schedule ~influence:tree k in
    scheduler_counters ()
  in
  let first = run () in
  let second = run () in
  Alcotest.(check (list (pair string int)))
    "identical runs give identical counters" first second;
  Alcotest.(check bool) "influence tree visited" true
    (List.assoc "scheduler.influence_nodes_visited" first > 0)

let test_eval_obs_populated () =
  reset ();
  let k = Ops.Classics.cast_transpose ~n:8 ~m:8 () in
  let r = Harness.Eval.evaluate_op ~name:"cast_transpose" k in
  let o = Option.get r.Harness.Eval.obs in
  (* with the fast path on by default, scheduling work shows up as hits
     or as ILP solves — the sum is what must be non-zero *)
  let work (s : Scheduling.Scheduler.stats) = s.ilp_solves + s.fastpath_hits in
  Alcotest.(check bool) "isl schedule work counted" true (work o.Harness.Eval.isl > 0);
  Alcotest.(check bool) "infl schedule work counted" true (work o.Harness.Eval.infl > 0);
  Alcotest.(check bool) "fastpath hit on cast_transpose" true
    (o.Harness.Eval.isl.fastpath_hits > 0);
  Alcotest.(check bool) "sched time measured" true (o.Harness.Eval.sched_s > 0.)

let test_trace_covers_pipeline () =
  reset ();
  Obs.Trace.enable ();
  let k = Ops.Classics.cast_transpose ~n:8 ~m:8 () in
  let _ = Harness.Eval.evaluate_op ~name:"cast_transpose" k in
  let kinds =
    List.sort_uniq compare (List.map (fun e -> e.Obs.Trace.kind) (Obs.Trace.events ()))
  in
  Obs.Trace.disable ();
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " present") true (List.mem k kinds))
    [ "scheduler.start"; "scheduler.fastpath"; "scheduler.done"; "vectorizer.rank";
      "vectorizer.tree"; "codegen.pass"; "gpusim.sim"; "harness.version";
      "harness.op" ]

(* ------------------------------------------------------------------ *)
(* Histograms                                                           *)
(* ------------------------------------------------------------------ *)

(* the log-bucketing guarantees ~4.3% relative error ((gamma-1)/(gamma+1)
   for gamma = 2^(1/8)); the tests allow 5% *)
let test_hist_quantile_accuracy () =
  reset ();
  let h = Obs.Histogram.create "test.hist_acc" in
  let n = 10_000 in
  for i = 1 to n do
    Obs.Histogram.observe h (float_of_int i *. 1e-4)
  done;
  let s = Option.get (Obs.Histogram.find "test.hist_acc") in
  Alcotest.(check int) "count" n s.Obs.Histogram.count;
  Alcotest.(check (float 1e-9)) "min exact" 1e-4 s.Obs.Histogram.min;
  Alcotest.(check (float 1e-9)) "max exact" 1.0 s.Obs.Histogram.max;
  Alcotest.(check (float 1e-3)) "sum within fixed-point grain"
    (float_of_int (n * (n + 1) / 2) *. 1e-4)
    (Obs.Histogram.sum s);
  List.iter
    (fun q ->
      let true_v = Float.of_int (int_of_float (ceil (q *. float_of_int n))) *. 1e-4 in
      let est = Obs.Histogram.quantile s q in
      let rel = Float.abs (est -. true_v) /. true_v in
      if rel > 0.05 then
        Alcotest.failf "p%g: estimate %g vs true %g (rel err %.3f > 0.05)" (q *. 100.)
          est true_v rel)
    [ 0.5; 0.9; 0.99; 0.999 ]

let test_hist_floor_and_extremes () =
  reset ();
  let h = Obs.Histogram.create "test.hist_floor" in
  List.iter (Obs.Histogram.observe h) [ 0.0; -3.5; 1e-12 ];
  let s = Option.get (Obs.Histogram.find "test.hist_floor") in
  Alcotest.(check int) "zero and negatives recorded" 3 s.Obs.Histogram.count;
  Alcotest.(check (float 1e-9)) "min keeps the exact negative" (-3.5)
    s.Obs.Histogram.min;
  (* estimates are clamped into [min, max], so a floor-bucket quantile
     never reports a value outside what was observed *)
  let p99 = Obs.Histogram.quantile s 0.99 in
  Alcotest.(check bool) "quantile clamped to observed range" true
    (p99 >= s.Obs.Histogram.min && p99 <= s.Obs.Histogram.max)

let test_hist_export () =
  reset ();
  let h = Obs.Histogram.create "test.hist_export" in
  List.iter (Obs.Histogram.observe h) [ 0.001; 0.002; 0.004 ];
  let s = Option.get (Obs.Histogram.find "test.hist_export") in
  (match Obs.Histogram.summary_json s with
   | Obs.Json.Assoc kvs ->
     List.iter
       (fun k ->
         Alcotest.(check bool) (k ^ " in summary") true (List.mem_assoc k kvs))
       [ "count"; "sum"; "min"; "max"; "mean"; "p50"; "p90"; "p99"; "p999" ]
   | _ -> Alcotest.fail "summary_json is not an object");
  (* the --stats-json envelope is version 2 and carries the summaries *)
  match Obs.Export.stats_json () with
  | Obs.Json.Assoc kvs ->
    Alcotest.(check bool) "envelope version 2" true
      (List.assoc_opt "version" kvs = Some (Obs.Json.Int 2));
    (match List.assoc_opt "histograms" kvs with
     | Some (Obs.Json.Assoc hs) ->
       Alcotest.(check bool) "histogram present in stats" true
         (List.mem_assoc "test.hist_export" hs)
     | _ -> Alcotest.fail "stats_json has no histograms object")
  | _ -> Alcotest.fail "stats_json is not an object"

(* ------------------------------------------------------------------ *)
(* Captures                                                             *)
(* ------------------------------------------------------------------ *)

(* One step touches all four kinds: a counter, a histogram, two nested
   spans and a trace event. *)
let capture_step =
  let c = Obs.Counters.create "test.capture_steps" in
  let h = Obs.Histogram.create "test.capture_hist" in
  fun i ->
    Obs.Counters.add c ((i mod 3) + 1);
    Obs.Histogram.observe h (float_of_int ((i * 7919 mod 997) + 1) *. 1e-5);
    Obs.Span.with_ "test.outer" (fun () ->
        if i mod 2 = 0 then Obs.Span.with_ "test.inner" ignore);
    Obs.Trace.emit "test.step" [ ("i", Obs.Json.Int i) ]

(* everything but wall-clock time: counters, histogram snapshots,
   normalized trace events (seq included), span paths with their calls *)
let observed () =
  let events =
    List.map
      (fun (e : Obs.Tracefile.event) ->
        Printf.sprintf "%d %s %s" e.seq e.kind (Obs.Json.to_string (Obs.Json.Assoc e.fields)))
      (Obs.Tracefile.normalize (Obs.Tracefile.of_live ())).events
  in
  ( List.filter (fun (_, v) -> v <> 0) (Obs.Counters.snapshot ()),
    List.filter (fun (s : Obs.Histogram.snapshot) -> s.count > 0) (Obs.Histogram.snapshot ()),
    events,
    List.map (fun (p, n, _) -> (p, n)) (Obs.Span.report ()) )

(* captures of uneven chunks, merged in order, must reproduce the
   sequential run bit-for-bit: same counters, same histogram count,
   fixed-point sum and buckets, same trace sequence, same span calls *)
let test_capture_merge_deterministic () =
  let steps = List.init 500 Fun.id in
  let run f =
    reset ();
    Obs.Trace.enable ();
    f ();
    let o = observed () in
    Obs.Trace.disable ();
    o
  in
  let sequential = run (fun () -> List.iter capture_step steps) in
  let rec chunks n = function
    | [] -> []
    | vs ->
      let k = min n (List.length vs) in
      List.filteri (fun i _ -> i < k) vs :: chunks (n + 37) (List.filteri (fun i _ -> i >= k) vs)
  in
  let merged =
    run (fun () ->
        chunks 13 steps
        |> List.map (fun chunk -> snd (Obs.scoped (fun () -> List.iter capture_step chunk)))
        |> List.iter Obs.merge)
  in
  let c, h, t, s = sequential and c', h', t', s' = merged in
  Alcotest.(check (list (pair string int))) "counters" c c';
  Alcotest.(check bool) "histogram snapshots bit-identical" true (h = h');
  Alcotest.(check (list string)) "trace events" t t';
  Alcotest.(check (list (pair string int))) "span paths and calls" s s';
  Alcotest.(check int) "the workload recorded" 500 (List.length t)

(* A nested capture merges into the one enclosing it, not into the
   shared state; reads see through both; a raising capture is merged. *)
let test_capture_nested () =
  reset ();
  Obs.Trace.enable ();
  let seen, outer =
    Obs.scoped (fun () ->
        Obs.Span.with_ "test.outer" (fun () ->
            let (), inner = Obs.scoped (fun () -> capture_step 1) in
            Obs.merge inner);
        Obs.Counters.find "test.capture_steps")
  in
  Alcotest.(check int) "inside: reads see the merged delta" 2 seen;
  Alcotest.(check int) "shared counter untouched" 0 (Obs.Counters.find "test.capture_steps");
  Alcotest.(check int) "no shared trace event" 0 (Obs.Trace.length ());
  Alcotest.(check (list string)) "shared spans untouched" []
    (List.map (fun (p, _, _) -> p) (Obs.Span.report ()));
  Alcotest.(check (list string)) "span paths keep the enclosing stack"
    [ "test.outer"; "test.outer/test.outer" ]
    (List.map (fun (p, _, _) -> p) (Obs.spans outer));
  Obs.merge outer;
  Alcotest.(check int) "merged into the shared state" 2 (Obs.Counters.find "test.capture_steps");
  Alcotest.(check int) "the event reached the trace" 1 (Obs.Trace.length ());
  (try ignore (Obs.scoped (fun () -> capture_step 0; failwith "expected")) with Failure _ -> ());
  Obs.Trace.disable ();
  Alcotest.(check int) "a raising capture is merged" 3 (Obs.Counters.find "test.capture_steps");
  (* a counter registered after the capture opened *)
  let late = "test.capture_late" in
  let seen, c =
    Obs.scoped (fun () ->
        let before = Obs.Counters.find late in
        Obs.Counters.add (Obs.Counters.create late) 5;
        (before, Obs.Counters.find late))
  in
  Alcotest.(check (pair int int)) "late counter: read inside" (0, 5) seen;
  Alcotest.(check int) "late counter: shared untouched" 0 (Obs.Counters.find late);
  Obs.merge c;
  Alcotest.(check int) "late counter: merged" 5 (Obs.Counters.find late)

let () =
  Alcotest.run "obs"
    [ ( "counters",
        [ Alcotest.test_case "monotone" `Quick test_counter_monotone;
          Alcotest.test_case "reset and find" `Quick test_counter_reset_and_find;
          Alcotest.test_case "idempotent create" `Quick test_counter_idempotent_create;
          Alcotest.test_case "snapshot sorted" `Quick test_counter_snapshot_sorted
        ] );
      ( "spans",
        [ Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safe
        ] );
      ( "json",
        Alcotest.test_case "roundtrip" `Quick test_json_roundtrip
        :: Alcotest.test_case "non-finite floats" `Quick test_json_non_finite
        :: Alcotest.test_case "parse errors" `Quick test_json_parse_errors
        :: Alcotest.test_case "number grammar" `Quick test_json_number_grammar
        :: Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escapes
        :: List.map QCheck_alcotest.to_alcotest [ prop_json_roundtrip ] );
      ( "trace",
        [ Alcotest.test_case "disabled by default" `Quick test_trace_disabled_by_default;
          Alcotest.test_case "emission order" `Quick test_trace_emission_order;
          Alcotest.test_case "json roundtrip" `Quick test_trace_json_roundtrip;
          Alcotest.test_case "write file" `Quick test_trace_write_file
        ] );
      ( "histograms",
        [ Alcotest.test_case "quantile accuracy" `Quick test_hist_quantile_accuracy;
          Alcotest.test_case "floor bucket" `Quick test_hist_floor_and_extremes;
          Alcotest.test_case "deterministic merge" `Quick test_capture_merge_deterministic;
          Alcotest.test_case "nested capture" `Quick test_capture_nested;
          Alcotest.test_case "export" `Quick test_hist_export
        ] );
      ( "pipeline",
        [ Alcotest.test_case "counters move" `Quick test_scheduler_counters_move;
          Alcotest.test_case "deterministic" `Quick test_scheduler_counters_deterministic;
          Alcotest.test_case "eval obs populated" `Quick test_eval_obs_populated;
          Alcotest.test_case "trace covers pipeline" `Quick test_trace_covers_pipeline
        ] )
    ]
