(* Prometheus-style text exposition of the whole Obs state: every
   registered counter and histogram plus callback gauges (cache size,
   uptime) registered by the subsystems that own them.

   Names are sanitized to the Prometheus grammar ([a-zA-Z0-9_:]) and
   prefixed "akg_": the counter "service.cache_hits" exports as
   akg_service_cache_hits_total.  The exposition includes zero-valued
   series — a scrape must cover everything registered, not just what
   has moved — which is also what the acceptance gate greps for. *)

type gauge = { gname : string; gdoc : string; read : unit -> float }

(* same publication discipline as the Counters registry: mutex-guarded
   writes, lock-free reads through an atomically republished list *)
let registry : (string, gauge) Hashtbl.t = Hashtbl.create 16
let registry_lock = Mutex.create ()
let published : gauge list Atomic.t = Atomic.make []

let publish () =
  Atomic.set published
    (Hashtbl.fold (fun _ g acc -> g :: acc) registry []
    |> List.sort (fun a b -> String.compare a.gname b.gname))

(* last registration wins: a re-created serve handler rebinds the cache
   gauges to its own cache instead of a stale closed one *)
let register_gauge ?(doc = "") gname read =
  Mutex.lock registry_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_lock)
    (fun () ->
      Hashtbl.replace registry gname { gname; gdoc = doc; read };
      publish ())

let gauges () = List.map (fun g -> (g.gname, g.read ())) (Atomic.get published)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let metric_name name = "akg_" ^ sanitize name

(* %.17g round-trips every float; trim the plain-integer case for
   readability (counts render as "42", not "42.000000000000000") *)
let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let help_line buf name doc ty =
  if doc <> "" then
    Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name doc);
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name ty)

let render_counters buf =
  let docs = Counters.docs () in
  List.iter
    (fun (name, v) ->
      let m = metric_name name ^ "_total" in
      help_line buf m (Option.value ~default:"" (List.assoc_opt name docs)) "counter";
      Buffer.add_string buf (Printf.sprintf "%s %d\n" m v))
    (Counters.snapshot ())

let render_gauges buf =
  List.iter
    (fun (g : gauge) ->
      let m = metric_name g.gname in
      help_line buf m g.gdoc "gauge";
      Buffer.add_string buf (Printf.sprintf "%s %s\n" m (float_str (g.read ()))))
    (Atomic.get published)

let render_histograms buf =
  let docs = Histogram.docs () in
  List.iter
    (fun (s : Histogram.snapshot) ->
      let m = metric_name s.Histogram.name in
      let doc = Option.value ~default:"" (List.assoc_opt s.Histogram.name docs) in
      help_line buf m doc "histogram";
      let cum = ref 0 in
      List.iter
        (fun (i, n) ->
          cum := !cum + n;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" m
               (float_str (Histogram.bucket_upper i))
               !cum))
        s.Histogram.buckets;
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" m s.Histogram.count);
      Buffer.add_string buf
        (Printf.sprintf "%s_sum %s\n" m (float_str (Histogram.sum s)));
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" m s.Histogram.count))
    (Histogram.snapshot ())

let exposition () =
  let buf = Buffer.create 4096 in
  render_counters buf;
  render_gauges buf;
  render_histograms buf;
  Buffer.contents buf
