(** Append-only structured event trace.

    Pipeline layers emit typed events ([kind] plus JSON fields); the
    harness serializes the whole trace to a JSON document that records
    every scheduling decision of a run.  Tracing is off by default and
    {!emitf} takes a thunk, so instrumented hot paths pay one boolean
    test when tracing is disabled.

    Event kinds are dotted paths grouped by layer ([scheduler.solve],
    [vectorizer.rank], [codegen.pass], [gpusim.sim], [harness.version],
    ...); the full schema is documented in [EXPERIMENTS.md].  Written
    traces are read back by {!Tracefile} and folded into structural
    fingerprints by {!Summary}. *)

type event = Capture.event = {
  seq : int;  (** 0-based position in the trace *)
  ts_us : float;
      (** wall-clock microseconds since the trace epoch (the moment the
          trace was enabled or last cleared); a timing field, stripped by
          {!Tracefile.normalize} *)
  kind : string;
  fields : (string * Json.t) list;
}

val schema_name : string
(** ["akg-repro-trace"], the envelope's schema tag. *)

val version : int
(** Current trace format version (2).  Version 1 lacked [ts_us]. *)

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

val clear : unit -> unit
(** Drops all recorded events, resets the sequence number and rearms the
    [ts_us] epoch (does not change whether tracing is enabled). *)

val emit : string -> (string * Json.t) list -> unit
(** [emit kind fields] appends an event; a no-op when tracing is off.
    Inside an {!Obs.scoped} capture the event is buffered there, and
    {!Obs.merge} appends a capture's events in emission order,
    renumbering them, so a parallel run produces the same event
    sequence as the sequential one.
    When a request id is installed ({!with_request}), a ["req"] field
    carrying it is prepended to the event's fields. *)

val with_request : string -> (unit -> 'a) -> 'a
(** [with_request id f] runs [f] with [id] as the current request id:
    every event emitted inside — including events of a domain spawned
    inside [f], such as a [Service.Pool] helper, which starts with its
    parent's request id — carries [("req", id)].  The serve front end
    wraps each request in this, which is what lets a recorded trace be
    sliced per request. *)

val emitf : string -> (unit -> (string * Json.t) list) -> unit
(** Like {!emit} but the fields are only computed when tracing is on —
    use this whenever building the fields does real work. *)

val events : unit -> event list
(** Recorded events, oldest first. *)

val length : unit -> int

val to_json : unit -> Json.t
(** The whole trace: [{"schema": "akg-repro-trace", "version": 2,
    "events": [...]}], each event as [{"seq": ..., "ts_us": ..., "kind":
    ..., <fields>}]; an event field named [seq], [ts_us] or [kind] would
    be shadowed by the envelope, so emitters avoid those.  The envelope is
    derived from the same constants as {!write_file}'s. *)

val write_file : string -> unit
(** Writes {!to_json} to a file, one event per line for greppability. *)
