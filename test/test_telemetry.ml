(* Tests for the scrape side of the observability layer: Obs.Metrics
   (Prometheus-style text exposition of counters, gauges and
   histograms). *)

let reset () = Obs.reset_all ()

let lines_of s = String.split_on_char '\n' s

let contains_line text line = List.mem line (lines_of text)

let check_line text line =
  Alcotest.(check bool) (Printf.sprintf "exposition has %S" line) true
    (contains_line text line)

(* ------------------------------------------------------------------ *)
(* Metrics exposition                                                   *)
(* ------------------------------------------------------------------ *)

let test_metrics_counters_and_gauges () =
  reset ();
  let c = Obs.Counters.create "telemetry.test_counter" ~doc:"a test counter" in
  Obs.Counters.add c 41;
  Obs.Counters.incr c;
  Obs.Metrics.register_gauge "telemetry.test-gauge" ~doc:"a test gauge" (fun () -> 2.5);
  let text = Obs.Metrics.exposition () in
  check_line text "# HELP akg_telemetry_test_counter_total a test counter";
  check_line text "# TYPE akg_telemetry_test_counter_total counter";
  check_line text "akg_telemetry_test_counter_total 42";
  (* names are sanitized into the Prometheus charset *)
  check_line text "# TYPE akg_telemetry_test_gauge gauge";
  check_line text "akg_telemetry_test_gauge 2.5";
  (* zero-valued registered counters are still exposed: a scrape must
     cover every registered series, not just the ones that moved *)
  let _ = Obs.Counters.create "telemetry.untouched" in
  check_line (Obs.Metrics.exposition ()) "akg_telemetry_untouched_total 0"

(* every registered counter and histogram appears in the exposition —
   the acceptance criterion for the scrape surface *)
let test_metrics_covers_registry () =
  reset ();
  let text = Obs.Metrics.exposition () in
  List.iter
    (fun (name, _) ->
      let series = Obs.Metrics.metric_name name ^ "_total " in
      Alcotest.(check bool) (Printf.sprintf "counter %s exposed" name) true
        (List.exists
           (fun l -> String.length l >= String.length series
                     && String.sub l 0 (String.length series) = series)
           (lines_of text)))
    (Obs.Counters.snapshot ());
  List.iter
    (fun (s : Obs.Histogram.snapshot) ->
      let series = Obs.Metrics.metric_name s.Obs.Histogram.name ^ "_count" in
      Alcotest.(check bool)
        (Printf.sprintf "histogram %s exposed" s.Obs.Histogram.name)
        true
        (List.exists
           (fun l -> String.length l >= String.length series
                     && String.sub l 0 (String.length series) = series)
           (lines_of text)))
    (Obs.Histogram.snapshot ())

let test_metrics_histogram_rendering () =
  reset ();
  let h = Obs.Histogram.create "telemetry.test_hist" ~doc:"a test histogram" in
  List.iter (Obs.Histogram.observe h) [ 0.001; 0.002; 0.002; 0.004; 1.5 ];
  let text = Obs.Metrics.exposition () in
  check_line text "# TYPE akg_telemetry_test_hist histogram";
  (* parse the series back out: buckets must be cumulative and
     non-decreasing, ending exactly at the +Inf bucket = _count *)
  let prefix = "akg_telemetry_test_hist_bucket{le=" in
  let buckets =
    List.filter_map
      (fun l ->
        if String.length l > String.length prefix
           && String.sub l 0 (String.length prefix) = prefix
        then
          match String.rindex_opt l ' ' with
          | Some i ->
            Some
              (int_of_string (String.sub l (i + 1) (String.length l - i - 1)))
          | None -> None
        else None)
      (lines_of text)
  in
  Alcotest.(check bool) "at least the +Inf bucket" true (List.length buckets >= 2);
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "buckets cumulative" true (nondecreasing buckets);
  let last = List.nth buckets (List.length buckets - 1) in
  Alcotest.(check int) "+Inf bucket equals count" 5 last;
  check_line text "akg_telemetry_test_hist_count 5"

let () =
  Alcotest.run "telemetry"
    [ ( "metrics",
        [ Alcotest.test_case "counters and gauges" `Quick
            test_metrics_counters_and_gauges;
          Alcotest.test_case "covers the registry" `Quick test_metrics_covers_registry;
          Alcotest.test_case "histogram rendering" `Quick
            test_metrics_histogram_rendering
        ] )
    ]
