type event = Capture.event = {
  seq : int;
  ts_us : float;
  kind : string;
  fields : (string * Json.t) list;
}

(* Trace format identity.  [header] is the single source of truth for the
   envelope: both {!to_json} and {!write_file} derive from it, so the
   schema tag and version cannot drift between the two serializers.
   Version history: 1 = seq/kind/fields; 2 = adds the [ts_us] wall-clock
   offset to every event (microseconds since the trace epoch). *)
let schema_name = "akg-repro-trace"
let version = 2
let header () = [ ("schema", Json.String schema_name); ("version", Json.Int version) ]

let on = ref false

(* wall-clock origin of [ts_us]; rearmed when the trace restarts *)
let epoch = ref (Unix.gettimeofday ())

let enable () =
  if Capture.shared.n_events = 0 then epoch := Unix.gettimeofday ();
  on := true

let disable () = on := false
let enabled () = !on

let clear () =
  Capture.shared.events <- [];
  Capture.shared.n_events <- 0;
  epoch := Unix.gettimeofday ()

(* Current request id, domain-local.  Set by the serve front end around
   each request and copied into every domain spawned under it (a pool's
   helpers), so every event a request causes — on any domain — carries
   the same "req" field and a trace can be sliced per request. *)
let request_key : string option Domain.DLS.key =
  Domain.DLS.new_key ~split_from_parent:Fun.id (fun () -> None)

let with_request id f =
  let saved = Domain.DLS.get request_key in
  Domain.DLS.set request_key (Some id);
  Fun.protect ~finally:(fun () -> Domain.DLS.set request_key saved) f

(* Inside a capture, events are buffered in it (sequence numbers are
   reassigned when it merges) instead of touching the shared event list.
   [on] and [epoch] are only written while no worker domain is running,
   so the plain reads below are race-free. *)

let emit kind fields =
  if !on then begin
    let ts_us = (Unix.gettimeofday () -. !epoch) *. 1e6 in
    let fields =
      match Domain.DLS.get request_key with
      | None -> fields
      | Some id -> ("req", Json.String id) :: fields
    in
    Capture.push (Capture.current ()) { seq = 0; ts_us; kind; fields }
  end

let emitf kind mk = if !on then emit kind (mk ())

let events () = List.rev Capture.shared.events

let length () = Capture.shared.n_events

let event_to_json e =
  Json.Assoc
    (("seq", Json.Int e.seq)
    :: ("ts_us", Json.Float e.ts_us)
    :: ("kind", Json.String e.kind)
    :: e.fields)

let to_json () = Json.Assoc (header () @ [ ("events", Json.List (List.map event_to_json (events ()))) ])

let write_file path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      (* envelope without its closing brace, then one event per line so
         the file greps and diffs well *)
      let h = Json.to_string (Json.Assoc (header ())) in
      output_string oc (String.sub h 0 (String.length h - 1));
      output_string oc ",\"events\":[\n";
      List.iteri
        (fun i e ->
          if i > 0 then output_string oc ",\n";
          output_string oc (Json.to_string (event_to_json e)))
        (events ());
      output_string oc "\n]}\n")
