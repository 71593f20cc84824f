module J = Obs.Json

let c_requests =
  Obs.Counters.create "service.serve_requests" ~doc:"serve requests handled"

let c_errors =
  Obs.Counters.create "service.serve_errors" ~doc:"serve requests answered with an error"

let c_metrics_requests =
  Obs.Counters.create "service.serve_metrics_requests"
    ~doc:"serve requests answered with a metrics exposition"

let c_health_requests =
  Obs.Counters.create "service.serve_health_requests"
    ~doc:"serve health-check requests"

let h_request =
  Obs.Histogram.create "serve.request_seconds"
    ~doc:"serve request latency, all verbs (seconds)"

let h_compile =
  Obs.Histogram.create "serve.compile_seconds"
    ~doc:"serve compile-request latency, cache hits included (seconds)"

let default_max_request_bytes = 1 lsl 20

module P = Harness.Pipeline

type handler = {
  find_op : string -> Ir.Kernel.t option;
  kernel_of_json : (J.t -> (Ir.Kernel.t, string) result) option;
  cache : Cache.t option;
  started : float;
  next_id : int Atomic.t;
  ops : (string * string, P.operator) Hashtbl.t;
      (* by kernel name and digest; guarded by [ops_lock] *)
  ops_lock : Mutex.t;
}

let make_handler ?kernel_of_json ?cache ~find_op () =
  (* gauges rebind to this handler's cache and epoch; last handler wins *)
  Option.iter
    (fun c ->
      Obs.Metrics.register_gauge "service.cache_entries"
        ~doc:"compile-cache entries on disk" (fun () ->
          float_of_int (Cache.stats c).Cache.entries);
      Obs.Metrics.register_gauge "service.cache_bytes"
        ~doc:"compile-cache bytes on disk" (fun () ->
          float_of_int (Cache.stats c).Cache.bytes))
    cache;
  let started = Unix.gettimeofday () in
  Obs.Metrics.register_gauge "service.serve_uptime_seconds"
    ~doc:"seconds since the serve handler was created" (fun () ->
      Unix.gettimeofday () -. started);
  { find_op; kernel_of_json; cache; started; next_id = Atomic.make 0;
    ops = Hashtbl.create 256; ops_lock = Mutex.create () }

(* The key names the kernel, so every spelling of an operator's name
   shares one entry. *)
let serve_flags = [ ("entry", "serve") ]

(* The operator every miss on a named kernel with this name and digest
   compiles with, whatever the spelling; inline kernels get a fresh one,
   so the table holds at most what [find_op] can return. *)
let named_operator h kernel =
  let id = (kernel.Ir.Kernel.name, Ir.Kernel.digest kernel) in
  Mutex.protect h.ops_lock (fun () ->
      match Hashtbl.find_opt h.ops id with
      | Some operator -> operator
      | None ->
        let operator = P.operator kernel in
        Hashtbl.replace h.ops id operator;
        operator)

(* [name] and [machine] are the request's, as its reply reports them;
   the pipeline runs [version] on [target] ({!P.resolve}). *)
let compile_report ~name ~machine ~version ~target operator =
  let kernel = P.kernel operator in
  let p = P.run ~machine:target version operator in
  let stats = p.P.stats in
  (* [P.run] has returned, so its solver-memo scope is closed: the
     legality check solves afresh against the run's dependences and checks
     the schedule independently. *)
  let legal =
    match Scheduling.Legality.check p.P.sched kernel p.P.deps with
    | Ok () -> true
    | Error _ -> false
  in
  let base =
    [ ("version", J.String name);
      ("machine", J.String machine.Gpusim.Machine.name);
      ("rows", J.Int (List.length p.P.sched.Scheduling.Schedule.rows));
      ("loop_dims", J.Int stats.Scheduling.Scheduler.loop_dims);
      ("scalar_dims", J.Int stats.Scheduling.Scheduler.scalar_dims);
      ("ilp_solves", J.Int stats.Scheduling.Scheduler.ilp_solves);
      ("fastpath_hits", J.Int stats.Scheduling.Scheduler.fastpath_hits);
      ("abandoned", J.Bool stats.Scheduling.Scheduler.influence_abandoned);
      ("legal", J.Bool legal);
      ("tiled", J.Bool (Codegen.Tiling.applied p.P.compiled.Codegen.Compile.ast))
    ]
  in
  match p.P.backend with
  | P.Emitted source ->
    (* serve stays emit-only (and so deterministic and toolchain-free):
       no host compile, no measured timing *)
    base
    @ [ ("cpu_machine", J.String target.Gpusim.Machine.name);
        ("isa", J.String (Gpusim.Machine.isa_name target.Gpusim.Machine.isa));
        ("source_bytes", J.Int (String.length source));
        ("source", J.String source)
      ]
  | P.Simulated report -> base @ [ ("time_us", J.Float (Gpusim.Sim.time_us report)) ]

let error ~id msg =
  Obs.Counters.incr c_errors;
  J.to_string
    (J.Assoc
       [ ("status", J.String "error"); ("id", J.String id);
         ("error", J.String msg)
       ])

(* every reply carries its request id and its own wall-clock cost; the
   span breakdown (scheduler/codegen/simulator paths, in microseconds)
   rides along on compile replies so a client can see where a slow
   request spent its time without a server-side trace *)
let timing_fields ~elapsed_s spans =
  [ ("elapsed_us", J.Float (elapsed_s *. 1e6));
    ("spans",
     J.Assoc
       (List.map
          (fun (path, calls, total_s) ->
            ( path,
              J.Assoc
                [ ("calls", J.Int calls);
                  ("total_us", J.Float (total_s *. 1e6))
                ] ))
          spans))
  ]

let ok ~id ~cached ~digest ~op ~timing fields =
  J.to_string
    (J.Assoc
       (("status", J.String "ok")
       :: ("id", J.String id)
       :: ("cached", J.Bool cached)
       :: ("digest", J.String digest)
       :: ("op", J.String op)
       :: (fields @ timing)))

let request_id h req =
  match Option.bind req (J.member "id") with
  | Some (J.String s) when s <> "" -> s
  | Some (J.Int n) -> string_of_int n
  | _ -> Printf.sprintf "r%d" (Atomic.fetch_and_add h.next_id 1)

let health_reply h ~id =
  Obs.Counters.incr c_health_requests;
  let cache_fields =
    match h.cache with
    | None -> [ ("cache", J.Null) ]
    | Some c ->
      let s = Cache.stats c in
      [ ("cache",
         J.Assoc
           [ ("dir", J.String (Cache.dir c));
             ("entries", J.Int s.Cache.entries);
             ("bytes", J.Int s.Cache.bytes)
           ])
      ]
  in
  J.to_string
    (J.Assoc
       ([ ("status", J.String "ok"); ("id", J.String id);
          ("health", J.String "ok");
          ("uptime_s", J.Float (Unix.gettimeofday () -. h.started));
          ("requests", J.Int (Obs.Counters.value c_requests));
          ("errors", J.Int (Obs.Counters.value c_errors));
          ("default_machine", J.String Gpusim.Machine.v100.name)
        ]
       @ cache_fields))

let metrics_reply ~id =
  Obs.Counters.incr c_metrics_requests;
  J.to_string
    (J.Assoc
       [ ("status", J.String "ok"); ("id", J.String id);
         ("metrics", J.String (Obs.Metrics.exposition ()))
       ])

let handle_compile h ~id req =
  let version =
    match J.member "version" req with
    | None -> Ok (P.name P.Infl)
    | Some (J.String s) when List.mem s P.names -> Ok s
    | Some (J.String s) ->
      Error (Printf.sprintf "unknown version %S (%s)" s (String.concat "|" P.names))
    | Some _ -> Error "version must be a string"
  in
  let machine =
    match J.member "machine" req with
    | None -> Ok Gpusim.Machine.v100
    | Some (J.String s) -> (
      match Gpusim.Machine.of_name s with
      | Some m -> Ok m
      | None -> Error (Gpusim.Machine.unknown_message s))
    | Some _ -> Error "machine must be a string"
  in
  (* the operator's name, its kernel, and whether it was found by name *)
  let kernel =
    match (J.member "op" req, J.member "kernel" req) with
    | Some (J.String name), None -> (
      match h.find_op name with
      | Some k -> Ok (name, k, true)
      | None -> Error (Printf.sprintf "unknown operator %S" name))
    | None, Some kj -> (
      match h.kernel_of_json with
      | None -> Error "inline kernels not supported by this endpoint"
      | Some of_json -> (
        match of_json kj with
        | Ok k -> Ok (k.Ir.Kernel.name, k, false)
        | Error e -> Error (Printf.sprintf "kernel: %s" e)))
    | Some _, None -> Error "op must be a string"
    | Some _, Some _ -> Error "give either op or kernel, not both"
    | None, None -> Error "request needs an op name or an inline kernel"
  in
  match (version, machine, kernel) with
  | Error e, _, _ | _, Error e, _ | _, _, Error e -> error ~id e
  | Ok name, Ok machine, Ok (op, kernel, named) -> (
    let version, target = Option.get (P.resolve name ~machine) in
    let t0 = Unix.gettimeofday () in
    (* what the pipeline records inside this request is captured for the
       reply's span breakdown, then folded back into the shared state *)
    let reply, capture =
      Obs.scoped (fun () ->
          let key = Key.make ~kernel ~machine ~version:name ~flags:serve_flags () in
          match Option.bind h.cache (fun c -> Cache.find c key) with
          | Some (J.Assoc fields) -> Ok (true, Key.digest key, fields)
          | Some _ | None -> (
            let operator = if named then named_operator h kernel else P.operator kernel in
            match compile_report ~name ~machine ~version ~target operator with
            | exception Scheduling.Scheduler.Failure_no_schedule msg ->
              Error (Printf.sprintf "no schedule: %s" msg)
            | exception (Failure msg | Invalid_argument msg) ->
              Error (Printf.sprintf "compile: %s" msg)
            | fields ->
              Option.iter (fun c -> Cache.store c key (J.Assoc fields)) h.cache;
              Ok (false, Key.digest key, fields)))
    in
    Obs.merge capture;
    let spans = Obs.spans capture in
    let elapsed_s = Unix.gettimeofday () -. t0 in
    Obs.Histogram.observe h_compile elapsed_s;
    match reply with
    | Error e -> error ~id e
    | Ok (cached, digest, fields) ->
      ok ~id ~cached ~digest ~op ~timing:(timing_fields ~elapsed_s spans) fields)

(* One request per line: {"op": NAME | "kernel": CASE, "verb"?, "id"?,
   "version"?, "machine"?}; other fields are ignored.  Every outcome —
   including blank, oversized and unparseable input — is a single-line
   JSON reply carrying the request id; the serve loop never crashes on a
   bad request. *)
let handle_line h line =
  Obs.Counters.incr c_requests;
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () -> Obs.Histogram.observe h_request (Unix.gettimeofday () -. t0))
    (fun () ->
      if String.length line > default_max_request_bytes then
        error ~id:(request_id h None)
          (Printf.sprintf "request too large (%d bytes > %d)" (String.length line)
             default_max_request_bytes)
      else if String.trim line = "" then
        error ~id:(request_id h None) "empty request"
      else
        match J.of_string line with
        | Error e -> error ~id:(request_id h None) (Printf.sprintf "parse: %s" e)
        | Ok req -> (
          let id = request_id h (Some req) in
          Obs.Trace.with_request id @@ fun () ->
          match J.member "verb" req with
          | None | Some (J.String "compile") -> handle_compile h ~id req
          | Some (J.String "metrics") -> metrics_reply ~id
          | Some (J.String "health") -> health_reply h ~id
          | Some (J.String v) ->
            error ~id (Printf.sprintf "unknown verb %S (compile|metrics|health)" v)
          | Some _ -> error ~id "verb must be a string"))

let serve h ic oc =
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
      output_string oc (handle_line h line);
      output_char oc '\n';
      flush oc;
      loop ()
  in
  loop ()
