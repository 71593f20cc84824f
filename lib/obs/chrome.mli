(** Chrome trace-event / Perfetto export.

    Converts a loaded trace into the JSON-array flavour of the Chrome
    trace-event format, openable in [ui.perfetto.dev] or
    [chrome://tracing]: begin/end pairs ([ph:"B"]/["E"]) for
    scheduler-run and operator-evaluation spans, complete slices
    ([ph:"X"]) for events that carry their own [dur_us] (ILP solves,
    codegen passes), and instants ([ph:"i"]) for everything else.  All
    events carry [ts] (microseconds since the trace epoch), [pid] and
    [tid].  Version-1 traces have no timestamps; their sequence numbers
    stand in for [ts]. *)

val of_tracefile : Tracefile.t -> Json.t
(** A [Json.List] of trace-event objects, in emission order. *)

val write_file : string -> Tracefile.t -> unit
(** Writes the event array, one event per line. *)
