let schema_name = "akg-repro-stats"

(* Version history: 1 = counters + spans; 2 = adds "histograms".  The
   envelope is additive — a version-1 consumer reading only counters and
   spans still finds them under the same keys. *)
let version = 2

let counters_json () =
  Json.Assoc
    (List.filter_map
       (fun (n, v) -> if v <> 0 then Some (n, Json.Int v) else None)
       (Counters.snapshot ()))

let spans_json () =
  Json.Assoc
    (List.map
       (fun (path, calls, total_s) ->
         ( path,
           Json.Assoc
             [ ("calls", Json.Int calls); ("total_ms", Json.Float (total_s *. 1e3)) ] ))
       (Span.report ()))

let histograms_json () =
  Json.Assoc
    (List.filter_map
       (fun (s : Histogram.snapshot) ->
         if s.Histogram.count = 0 then None
         else Some (s.Histogram.name, Histogram.summary_json s))
       (Histogram.snapshot ()))

let stats_json () =
  Json.Assoc
    [ ("schema", Json.String schema_name);
      ("version", Json.Int version);
      ("counters", counters_json ());
      ("spans", spans_json ());
      ("histograms", histograms_json ())
    ]

let write_stats path = Json.to_file path (stats_json ())

let write_run ~stats ?trace ?stats_json () =
  let written what file write =
    match write file with
    | () -> true
    | exception Sys_error e ->
      Format.eprintf "%s: cannot write %s: %s@." what file e;
      false
  in
  let trace_ok =
    match trace with
    | None -> true
    | Some file ->
      written "trace" file (fun file ->
          Trace.write_file file;
          Format.eprintf "trace: %d events written to %s@." (Trace.length ()) file)
  in
  let stats_ok =
    match stats_json with None -> true | Some file -> written "stats-json" file write_stats
  in
  if stats then begin
    Format.printf "@.counters:@.%a" Counters.pp_table ();
    Format.printf "@.pass timings:@.%a" Span.pp_report ();
    (* latency histograms record only on the serve path, so this table
       is usually empty (and then prints nothing) *)
    Format.printf "%a" Histogram.pp_table ()
  end;
  trace_ok && stats_ok
