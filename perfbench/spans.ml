(* Benchmark-side spans.  The benchmark wraps its calls into each library
   layer in a span named "<layer>.<what>", where <layer> is the lib/
   directory the called function lives in.  Spans are timed in CPU
   seconds (see Stats.now) and stay in memory until the run ends.  A
   span's self time is its duration minus the durations of its direct
   children, which nest strictly inside it because the benchmark runs on
   one thread.  Spans are recorded only when [enabled] is set, so the
   untraced run times the library calls bare. *)

type t = {
  sid : int;
  parent : int;  (* 0 for a root span *)
  trace : string;  (* shared by every span of one op or request *)
  name : string;
  start : float;
  stop : float;
}

let enabled = ref false
let recorded : t list ref = ref []
let next_sid = ref 0
let open_spans : (int * string) list ref = ref []

let with_ ?trace name f =
  if not !enabled then f ()
  else
  let sid = incr next_sid; !next_sid in
  let parent, inherited =
    match !open_spans with (p, tr) :: _ -> (p, tr) | [] -> (0, "")
  in
  let trace = Option.value trace ~default:inherited in
  open_spans := (sid, trace) :: !open_spans;
  let start = Stats.now () in
  Fun.protect f ~finally:(fun () ->
      let stop = Stats.now () in
      open_spans := List.tl !open_spans;
      recorded := { sid; parent; trace; name; start; stop } :: !recorded)

let duration s = s.stop -. s.start

let layer s =
  match String.index_opt s.name '.' with
  | Some i -> String.sub s.name 0 i
  | None -> s.name

let total name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. duration s else acc)
    0.0 !recorded

let roots_total () =
  List.fold_left
    (fun acc s -> if s.parent = 0 then acc +. duration s else acc)
    0.0 !recorded

(* Self seconds per layer over every recorded span. *)
let self_by_layer () =
  let children = Hashtbl.create 4096 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  List.iter (fun s -> if s.parent <> 0 then add children s.parent (duration s)) !recorded;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let kids = Option.value ~default:0.0 (Hashtbl.find_opt children s.sid) in
      add by_layer (layer s) (duration s -. kids))
    !recorded;
  by_layer

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Obs.Json.to_string
           (Obs.Json.Assoc
              [ ("sid", Obs.Json.Int s.sid); ("parent", Obs.Json.Int s.parent);
                ("trace", Obs.Json.String s.trace); ("name", Obs.Json.String s.name);
                ("start", Obs.Json.Float s.start); ("stop", Obs.Json.Float s.stop)
              ]));
      output_char oc '\n')
    (List.rev !recorded);
  close_out oc
