(** Reading {!Trace} files back for analysis.

    {!load} parses a [--trace FILE.json] document through {!Json},
    validates the envelope (schema tag, version 1..{!Trace.version}) and
    returns typed events.  {!normalize} strips everything wall-clock
    dependent — [seq] is retained in the record but carries no structural
    meaning, [ts_us] is dropped, and every [dur_us] / [time_us] / [*_ms]
    field is removed, recursively — so two normalized traces of the same
    revision compare equal and {!Summary} can fingerprint them. *)

type event = {
  seq : int;
  ts_us : float option;  (** [None] for version-1 traces and after {!normalize} *)
  kind : string;
  fields : (string * Json.t) list;  (** envelope keys already removed *)
}

type t = { version : int; events : event list }

val of_json : Json.t -> (t, string) result
(** Validates the envelope and types every event; the error names the
    first offending event. *)

val load : string -> (t, string) result
(** Reads and parses a trace file; I/O, JSON and schema errors all come
    back as [Error]. *)

val of_live : unit -> t
(** The events currently recorded by {!Trace}, without serializing. *)

val timing_field : string -> bool
(** True for the field names normalization removes: [dur_us], [time_us],
    [ts_us], and any name ending in [_ms]. *)

val normalize : t -> t
(** Strips all timing fields (recursively, including nested objects) and
    timestamps. *)

val timing_totals : t -> (string * float) list
(** Per [kind.field] sums of the timing fields normalization would drop
    (excluding [ts_us]), sorted by key — the "timing-only" side of a
    trace diff. *)
