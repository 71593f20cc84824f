(* Tests for the compile service (lib/service): cache key stability, the
   on-disk cache's hit/miss/corruption/eviction behavior, worker-pool
   determinism, cache-aware suite evaluation, and the serve front end. *)

let reset () = Obs.reset_all ()

let classic name =
  match List.assoc_opt name Ops.Classics.all with
  | Some mk -> mk ()
  | None -> Alcotest.failf "missing classic operator %s" name

let find_classic name = Option.map (fun mk -> mk ()) (List.assoc_opt name Ops.Classics.all)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "akg_service_test_%d_%d" (Unix.getpid ()) !n)
    in
    if Sys.file_exists d then
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    d

let counter = Obs.Counters.find

(* ------------------------------------------------------------------ *)
(* Keys                                                                 *)
(* ------------------------------------------------------------------ *)

let test_key_stability () =
  let k = classic "fig2" and k' = classic "transpose_add" in
  let v100 = Gpusim.Machine.v100 and a100 = Gpusim.Machine.a100 in
  let mk ?format_version ?flags kernel machine version =
    Service.Key.digest
      (Service.Key.make ?format_version ?flags ~kernel ~machine ~version ())
  in
  Alcotest.(check string) "deterministic" (mk k v100 "eval") (mk k v100 "eval");
  Alcotest.(check string)
    "flag order irrelevant"
    (mk ~flags:[ ("a", "1"); ("b", "2") ] k v100 "eval")
    (mk ~flags:[ ("b", "2"); ("a", "1") ] k v100 "eval");
  let base = mk k v100 "eval" in
  Alcotest.(check bool) "kernel changes digest" false (base = mk k' v100 "eval");
  Alcotest.(check bool) "machine changes digest" false (base = mk k a100 "eval");
  Alcotest.(check bool) "version changes digest" false (base = mk k v100 "isl");
  Alcotest.(check bool)
    "flags change digest" false
    (base = mk ~flags:[ ("tile", "32") ] k v100 "eval");
  Alcotest.(check bool)
    "format bump changes digest" false
    (base = mk ~format_version:(Service.Key.format_version + 1) k v100 "eval")

(* The on-disk name of fig2's Table II entry: a change to eval_key's
   preimage (its flags, the kernel text, the machine rendering) orphans
   every existing .akg-cache entry and shows up here first.  A deliberate
   Key.format_version bump moves it too; update the literal then. *)
let test_eval_key_pinned () =
  Alcotest.(check string)
    "fig2 on v100" "f580dc4235014aeedac098ec417af463"
    (Service.Key.digest
       (Service.Batch.eval_key ~machine:Gpusim.Machine.v100 ~name:"fig2" (classic "fig2")))

(* ------------------------------------------------------------------ *)
(* Pool                                                                 *)
(* ------------------------------------------------------------------ *)

let test_pool_order_and_counters () =
  reset ();
  let c = Obs.Counters.create "test.pool_work" in
  let f x =
    Obs.Counters.incr c;
    x * x
  in
  let xs = List.init 20 Fun.id in
  let seq = Service.Pool.map ~jobs:1 f xs in
  let seq_total = Obs.Counters.value c in
  let par = Service.Pool.map ~jobs:4 f xs in
  Alcotest.(check (list int)) "input order preserved" seq par;
  Alcotest.(check int) "counter totals match sequential" seq_total
    (Obs.Counters.value c - seq_total)

let test_pool_exception () =
  reset ();
  Alcotest.check_raises "task exception surfaces" (Failure "boom") (fun () ->
      ignore
        (Service.Pool.map ~jobs:4
           (fun x -> if x = 7 then failwith "boom" else x)
           (List.init 12 Fun.id)))

(* BENCH_PR5 regression: spawning worker domains on a single-core host
   (or for --jobs 1, or a single task) costs more than it saves — those
   shapes must take the sequential path. *)
let test_pool_parallelizable () =
  Alcotest.(check bool) "one core stays sequential" false
    (Service.Pool.parallelizable ~cores:1 ~jobs:8 64);
  Alcotest.(check bool) "jobs 1 stays sequential" false
    (Service.Pool.parallelizable ~cores:4 ~jobs:1 64);
  Alcotest.(check bool) "jobs 0 stays sequential" false
    (Service.Pool.parallelizable ~cores:4 ~jobs:0 64);
  Alcotest.(check bool) "single task stays sequential" false
    (Service.Pool.parallelizable ~cores:4 ~jobs:4 1);
  Alcotest.(check bool) "empty input stays sequential" false
    (Service.Pool.parallelizable ~cores:4 ~jobs:4 0);
  Alcotest.(check bool) "multi-core multi-job fans out" true
    (Service.Pool.parallelizable ~cores:4 ~jobs:4 8);
  (* whatever this host looks like, the pool must agree with its own
     predicate — and still produce input-ordered results *)
  let xs = List.init 8 Fun.id in
  Alcotest.(check (list int)) "sequential path is order-preserving" xs
    (Service.Pool.map ~jobs:1 Fun.id xs)

(* histograms captured per worker and merged in task-index order must be
   bit-identical to a sequential run — count, fixed-point sum, min, max
   and every bucket — whatever the job count *)
let test_pool_histogram_determinism () =
  let hist = Obs.Histogram.create "test.pool_hist" in
  let f x =
    Obs.Histogram.observe hist (float_of_int ((x * 7919 mod 97) + 1) *. 1e-5);
    x
  in
  let xs = List.init 48 Fun.id in
  let snap jobs =
    reset ();
    ignore (Service.Pool.map ~jobs f xs);
    Option.get (Obs.Histogram.find "test.pool_hist")
  in
  let s1 = snap 1 in
  Alcotest.(check int) "every task observed" 48 s1.Obs.Histogram.count;
  Alcotest.(check bool) "--jobs 2 bit-identical" true (s1 = snap 2);
  Alcotest.(check bool) "--jobs 8 bit-identical" true (s1 = snap 8)

(* the coordinator's request id rides into the workers: trace events a
   task emits carry the same "req" field the dispatching request does *)
let test_pool_request_propagation () =
  reset ();
  Obs.Trace.enable ();
  Obs.Trace.clear ();
  ignore
    (Obs.Trace.with_request "req-42" (fun () ->
         Service.Pool.map ~jobs:2
           (fun x ->
             Obs.Trace.emit "test.task" [ ("x", Obs.Json.Int x) ];
             x)
           (List.init 6 Fun.id)));
  let evs =
    List.filter (fun e -> e.Obs.Trace.kind = "test.task") (Obs.Trace.events ())
  in
  Obs.Trace.disable ();
  Alcotest.(check int) "all tasks traced" 6 (List.length evs);
  List.iter
    (fun e ->
      Alcotest.(check bool) "req field carried into worker" true
        (List.assoc_opt "req" e.Obs.Trace.fields = Some (Obs.Json.String "req-42")))
    evs

(* ------------------------------------------------------------------ *)
(* Cache                                                                *)
(* ------------------------------------------------------------------ *)

let payload tag = Obs.Json.Assoc [ ("tag", Obs.Json.String tag) ]

let key ?format_version ?flags tag =
  Service.Key.make ?format_version
    ~flags:(("tag", tag) :: Option.value ~default:[] flags)
    ~kernel:(classic "fig2") ~machine:Gpusim.Machine.v100 ~version:"test" ()

let test_cache_roundtrip () =
  reset ();
  let c = Service.Cache.open_ (fresh_dir ()) in
  let k = key "roundtrip" in
  Alcotest.(check bool) "cold lookup misses" true (Service.Cache.find c k = None);
  Alcotest.(check int) "miss counted" 1 (counter "service.cache_misses");
  Service.Cache.store c k (payload "v");
  Alcotest.(check bool)
    "warm lookup hits" true
    (Service.Cache.find c k = Some (payload "v"));
  Alcotest.(check int) "hit counted" 1 (counter "service.cache_hits")

let test_cache_corrupt () =
  reset ();
  let c = Service.Cache.open_ (fresh_dir ()) in
  let k = key "corrupt" in
  Service.Cache.store c k (payload "v");
  let path = Service.Cache.entry_path c k in
  (* truncate mid-document: a torn write that the atomic rename is meant
     to prevent, simulated directly *)
  let oc = open_out path in
  output_string oc "{\"schema\":\"akg-repro-cache-entry\",\"form";
  close_out oc;
  Alcotest.(check bool) "corrupt entry reads as miss" true (Service.Cache.find c k = None);
  Alcotest.(check int) "corruption counted" 1 (counter "service.cache_corrupt");
  Alcotest.(check bool) "corrupt file deleted" false (Sys.file_exists path);
  Service.Cache.store c k (payload "v2");
  Alcotest.(check bool)
    "recompute repopulates" true
    (Service.Cache.find c k = Some (payload "v2"))

let test_cache_format_bump () =
  reset ();
  let c = Service.Cache.open_ (fresh_dir ()) in
  Service.Cache.store c (key "bump") (payload "v");
  let bumped = key ~format_version:(Service.Key.format_version + 1) "bump" in
  Alcotest.(check bool)
    "bumped format is a plain miss" true
    (Service.Cache.find c bumped = None);
  (* a file whose recorded format disagrees with its key is corrupt *)
  let k = key "tamper" in
  Service.Cache.store c k (payload "v");
  let path = Service.Cache.entry_path c k in
  let ic = open_in path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let tampered =
    Str.replace_first
      (Str.regexp_string (Printf.sprintf "\"format\":%d" Service.Key.format_version))
      (Printf.sprintf "\"format\":%d" (Service.Key.format_version + 1))
      contents
  in
  let oc = open_out path in
  output_string oc tampered;
  close_out oc;
  Alcotest.(check bool)
    "tampered format reads as miss" true
    (Service.Cache.find c k = None)

let test_cache_eviction () =
  reset ();
  let dir = fresh_dir () in
  let big = Service.Cache.open_ dir in
  let keys = List.map (fun i -> key (Printf.sprintf "evict%d" i)) [ 1; 2; 3 ] in
  List.iter (fun k -> Service.Cache.store big k (payload "v")) keys;
  let size k = (Unix.stat (Service.Cache.entry_path big k)).Unix.st_size in
  let entry_bytes = size (List.hd keys) in
  (* age the three entries oldest-first *)
  List.iteri
    (fun i k ->
      let t = 1000.0 +. float_of_int i in
      Unix.utimes (Service.Cache.entry_path big k) t t)
    keys;
  (* a cap of two-and-a-half entries: after the fourth store, the two
     oldest must go to get back under it *)
  let capped = Service.Cache.open_ ~max_bytes:(5 * entry_bytes / 2) dir in
  Service.Cache.store capped (key "evict4") (payload "v");
  let alive k = Sys.file_exists (Service.Cache.entry_path capped k) in
  (match keys with
   | [ k1; k2; k3 ] ->
     Alcotest.(check bool) "oldest evicted" false (alive k1);
     Alcotest.(check bool) "second-oldest evicted" false (alive k2);
     Alcotest.(check bool) "newer survivor kept" true (alive k3);
     Alcotest.(check bool) "fresh store kept" true (alive (key "evict4"))
   | _ -> assert false);
  Alcotest.(check int) "evictions counted" 2 (counter "service.cache_evictions")

(* ------------------------------------------------------------------ *)
(* Batch                                                                *)
(* ------------------------------------------------------------------ *)

let suite_ops = [ "transpose_add"; "reduce_2d" ]
let suite () = List.map (fun n -> (n, classic n)) suite_ops

let render results =
  String.concat "\n"
    (List.map (fun r -> Obs.Json.to_string (Harness.Eval.result_to_json r)) results)

let test_batch_cache_roundtrip () =
  reset ();
  let cache = Service.Cache.open_ (fresh_dir ()) in
  let cold = render (Service.Batch.evaluate_suite ~cache (suite ())) in
  let solves_after_cold = counter "scheduler.ilp_solves" in
  Alcotest.(check int)
    "cold run stores every op" (List.length suite_ops)
    (counter "service.cache_stores");
  let warm = render (Service.Batch.evaluate_suite ~cache (suite ())) in
  Alcotest.(check string) "warm results bit-identical" cold warm;
  Alcotest.(check int)
    "warm run hits every op" (List.length suite_ops)
    (counter "service.cache_hits");
  Alcotest.(check int)
    "warm run performs zero ILP solves" solves_after_cold
    (counter "scheduler.ilp_solves")

(* A row read from the cache carries no observations of its own: the
   stats table shows it as cached and totals only the computed rows. *)
let test_batch_hits_carry_no_obs () =
  reset ();
  let cache = Service.Cache.open_ (fresh_dir ()) in
  let first, second = match suite () with [ a; b ] -> (a, b) | _ -> assert false in
  ignore (Service.Batch.evaluate_suite ~cache [ first ]);
  let results = Service.Batch.evaluate_suite ~cache [ first; second ] in
  Alcotest.(check (list (pair string bool)))
    "hit has no obs, miss has"
    [ (fst first, false); (fst second, true) ]
    (List.map (fun (r : Harness.Eval.op_result) -> (r.op_name, Option.is_some r.obs)) results);
  let lines =
    String.split_on_char '\n' (Format.asprintf "%a" Harness.Tables.stats_table results)
  in
  let row op =
    match List.find_opt (fun l -> String.starts_with ~prefix:(op ^ " ") l) lines with
    | Some l -> List.map String.trim (String.split_on_char '|' l)
    | None -> Alcotest.failf "no stats row for %s" op
  in
  Alcotest.(check (list string)) "hit row reads cached" [ fst first; "cached" ] (row (fst first));
  Alcotest.(check bool) "miss row has numbers" true (List.length (row (fst second)) = 4);
  Alcotest.(check (list string)) "total covers the computed row" [ "TOTAL (1 ops, 1 cached)" ]
    [ List.hd (row "TOTAL") ]

(* A payload stored before the compile cache dropped per-run observations
   (isl_sched ... sim_s) still decodes to the same Table II facts. *)
let test_batch_old_payload_decodes () =
  let sched =
    {|{"ilp_solves":3,"bb_nodes":1,"sibling_moves":0,"ancestor_backtracks":0,"scc_separations":1,"abandoned":false,"fastpath_hits":2,"fastpath_fallbacks":1,"sched_s":0.0012}|}
  in
  let payload =
    Printf.sprintf
      {|{"op":"fig2","isl_us":12.5,"tvm_us":20.25,"novec_us":11.0,"infl_us":9.75,"tiled_us":12.5,"influenced":true,"vec":true,"tiled":false,"isl_sched":%s,"infl_sched":%s,"tiled_sched":%s,"tree_s":0.001,"lower_s":0.002,"sim_s":0.003}|}
      sched sched sched
  in
  match Obs.Json.of_string payload with
  | Error e -> Alcotest.failf "payload does not parse: %s" e
  | Ok j -> (
    match Harness.Eval.result_of_json j with
    | Error e -> Alcotest.failf "old payload rejected: %s" e
    | Ok r ->
      let expected =
        { Harness.Eval.op_name = "fig2"; isl_us = 12.5; tvm_us = 20.25; novec_us = 11.0;
          infl_us = 9.75; tiled_us = 12.5; influenced = true; vec = true; tiled = false;
          obs = None }
      in
      Alcotest.(check string) "same facts" (render [ expected ]) (render [ r ]);
      Alcotest.(check bool) "no obs" true (r.obs = None))

let test_batch_corrupt_entry_recomputes () =
  reset ();
  let cache = Service.Cache.open_ (fresh_dir ()) in
  let cold = render (Service.Batch.evaluate_suite ~cache (suite ())) in
  let name = List.hd suite_ops in
  let k =
    Service.Batch.eval_key ~machine:Gpusim.Machine.v100 ~name (classic name)
  in
  let oc = open_out (Service.Cache.entry_path cache k) in
  output_string oc "garbage";
  close_out oc;
  let again = render (Service.Batch.evaluate_suite ~cache (suite ())) in
  Alcotest.(check string) "recomputed results identical" cold again;
  Alcotest.(check int) "only the intact entry hits" 1 (counter "service.cache_hits");
  Alcotest.(check bool)
    "corrupt entry was recomputed and re-stored" true
    (Service.Cache.find cache k <> None)

(* [f]'s result with the counter deltas it made, sorted by name: read
   inside a capture, which is dropped unmerged *)
let counter_deltas f =
  fst
    (Obs.scoped (fun () ->
         let before = Obs.Counters.snapshot () in
         let r = f () in
         let moved (n, v) =
           let d = v - Option.value ~default:0 (List.assoc_opt n before) in
           if d <> 0 then Some (n, d) else None
         in
         (r, List.filter_map moved (Obs.Counters.snapshot ()))))

let test_suite_determinism_across_jobs () =
  reset ();
  let row results =
    Format.asprintf "%a" (fun fmt -> Harness.Tables.table2_row fmt "SUITE") results
  in
  let run jobs = counter_deltas (fun () -> Service.Batch.evaluate_suite ~jobs (suite ())) in
  let r1, d1 = run 1 in
  let r4, d4 = run 4 in
  Alcotest.(check string) "Table II row identical under --jobs" (row r1) (row r4);
  Alcotest.(check string)
    "structural results identical"
    (render r1) (render r4);
  Alcotest.(check (list (pair string int)))
    "merged counter totals identical" d1 d4

(* ------------------------------------------------------------------ *)
(* Serve                                                                *)
(* ------------------------------------------------------------------ *)

let has needle hay =
  Alcotest.(check bool) (Printf.sprintf "reply contains %s" needle) true
    (let re = Str.regexp_string needle in
     try ignore (Str.search_forward re hay 0); true with Not_found -> false)

(* per-request wall-clock fields differ between otherwise-identical
   replies; drop them before comparing *)
let scrub reply =
  match Obs.Json.of_string reply with
  | Ok (Obs.Json.Assoc kvs) ->
    Obs.Json.to_string
      (Obs.Json.Assoc
         (List.filter (fun (k, _) -> k <> "elapsed_us" && k <> "spans") kvs))
  | _ -> reply

let test_serve_requests () =
  reset ();
  let cache = Service.Cache.open_ (fresh_dir ()) in
  let h = Service.Serve.make_handler ~cache ~find_op:find_classic () in
  let reply line = Service.Serve.handle_line h line in
  let r1 = reply {|{"op":"fig2","id":"t"}|} in
  has {|"status":"ok"|} r1;
  has {|"cached":false|} r1;
  has {|"legal":true|} r1;
  let r2 = reply {|{"op":"fig2","id":"t"}|} in
  has {|"status":"ok"|} r2;
  has {|"cached":true|} r2;
  (* identical digests prove the reply really came back from the entry *)
  has {|"digest"|} r2;
  Alcotest.(check string) "cached reply matches computed reply"
    (Str.global_replace (Str.regexp_string {|"cached":false|}) {|"cached":true|}
       (scrub r1))
    (scrub r2);
  let r3 = reply "this is not json" in
  has {|"status":"error"|} r3;
  has {|parse|} r3;
  let r4 = reply {|{"op":"no_such_operator"}|} in
  has {|"status":"error"|} r4;
  has {|no_such_operator|} r4;
  let r5 = reply {|{"op":"fig2","version":"warp"}|} in
  has {|"status":"error"|} r5;
  Alcotest.(check int) "every request counted" 5 (counter "service.serve_requests");
  Alcotest.(check int) "errors counted" 3 (counter "service.serve_errors")

let test_serve_guards () =
  reset ();
  let h = Service.Serve.make_handler ~max_request_bytes:64 ~find_op:find_classic () in
  let reply line = Service.Serve.handle_line h line in
  let r_blank = reply "" in
  has {|"status":"error"|} r_blank;
  has {|empty request|} r_blank;
  let r_ws = reply "   " in
  has {|empty request|} r_ws;
  let r_big = reply (String.make 100 'x') in
  has {|"status":"error"|} r_big;
  has {|request too large|} r_big;
  let r_verb = reply {|{"verb":"frobnicate"}|} in
  has {|"status":"error"|} r_verb;
  has {|unknown verb|} r_verb;
  let r_verb_ty = reply {|{"verb":42}|} in
  has {|verb must be a string|} r_verb_ty;
  Alcotest.(check int) "all guarded requests counted" 5
    (counter "service.serve_requests");
  Alcotest.(check int) "every guard is a structured error" 5
    (counter "service.serve_errors")

let test_serve_verbs_and_ids () =
  reset ();
  let cache = Service.Cache.open_ (fresh_dir ()) in
  let h = Service.Serve.make_handler ~cache ~find_op:find_classic () in
  let reply line = Service.Serve.handle_line h line in
  (* explicit ids are echoed, string or int; missing ids are assigned *)
  let r_health = reply {|{"verb":"health","id":"probe-1"}|} in
  has {|"status":"ok"|} r_health;
  has {|"id":"probe-1"|} r_health;
  has {|"health":"ok"|} r_health;
  has {|"uptime_s"|} r_health;
  has {|"entries"|} r_health;
  let r_int_id = reply {|{"verb":"health","id":7}|} in
  has {|"id":"7"|} r_int_id;
  let auto_id r =
    let _ = Str.search_forward (Str.regexp {|"id":"\([^"]*\)"|}) r 0 in
    Str.matched_group 1 r
  in
  let a1 = auto_id (reply {|{"verb":"health"}|}) in
  let a2 = auto_id (reply {|{"verb":"health"}|}) in
  Alcotest.(check bool) "auto ids distinct" false (a1 = a2);
  (* the metrics verb returns the full exposition, counters included *)
  let r_metrics = reply {|{"verb":"metrics","id":"m"}|} in
  has {|"status":"ok"|} r_metrics;
  has {|"id":"m"|} r_metrics;
  has {|akg_service_serve_requests_total|} r_metrics;
  has {|akg_serve_request_seconds_bucket|} r_metrics;
  has {|akg_service_cache_entries|} r_metrics;
  (* compile replies carry their own timing breakdown *)
  let r_compile = reply {|{"op":"fig2","id":"c"}|} in
  has {|"status":"ok"|} r_compile;
  has {|"elapsed_us"|} r_compile;
  has {|"spans"|} r_compile;
  (* and the latency histograms saw every request *)
  let s = Option.get (Obs.Histogram.find "serve.request_seconds") in
  Alcotest.(check int) "request histogram counts all verbs" 6 s.Obs.Histogram.count;
  let sc = Option.get (Obs.Histogram.find "serve.compile_seconds") in
  Alcotest.(check int) "compile histogram counts compiles only" 1 sc.Obs.Histogram.count

(* Both strategies give the same schedule, so a known "strategy" is
   answered exactly like a request without one and shares its cache
   entry; anything else is still a structured error. *)
let test_serve_strategy_field () =
  reset ();
  let uncached = Service.Serve.make_handler ~find_op:find_classic () in
  let plain = Service.Serve.handle_line uncached {|{"op":"fig2","id":"s"}|} in
  let ilp =
    Service.Serve.handle_line uncached {|{"op":"fig2","strategy":"ilp-only","id":"s"}|}
  in
  has {|"status":"ok"|} ilp;
  Alcotest.(check string) "ilp-only answered like the default" (scrub plain) (scrub ilp);
  let cache = Service.Cache.open_ (fresh_dir ()) in
  let reply = Service.Serve.handle_line (Service.Serve.make_handler ~cache ~find_op:find_classic ()) in
  let first = reply {|{"op":"fig2","id":"s"}|} in
  has {|"cached":false|} first;
  let second = reply {|{"op":"fig2","strategy":"ilp-only","id":"s"}|} in
  has {|"cached":true|} second;
  Alcotest.(check string) "one cache entry for both"
    (Str.global_replace (Str.regexp_string {|"cached":false|}) {|"cached":true|}
       (scrub first))
    (scrub second);
  let bogus = reply {|{"op":"fig2","strategy":"bogus"}|} in
  has {|"status":"error"|} bogus;
  has {|unknown strategy|} bogus;
  let not_string = reply {|{"op":"fig2","strategy":1}|} in
  has {|"status":"error"|} not_string;
  has {|strategy must be a string|} not_string

module J = Obs.Json

let fields reply =
  match J.of_string reply with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparseable reply %s: %s" reply e

let str_field j k =
  match J.member k j with Some (J.String s) -> Some s | _ -> None

(* The machine picks the backend.  "cpu" stays an accepted request name:
   on the default (GPU) machine it is infl emitted for the scalar profile,
   the reply keeps the request's version and machine, and its cache key is
   the request's (version name, machine), as before the split.  An infl
   request on a CPU profile gets C too, never a simulated time. *)
let test_serve_backend_axis () =
  reset ();
  let h = Service.Serve.make_handler ~find_op:find_classic () in
  let reply line = fields (Service.Serve.handle_line h line) in
  let kernel = classic "fig2" in
  let digest ~machine version =
    Service.Key.digest
      (Service.Key.make ~kernel ~machine ~version
         ~flags:[ ("entry", "serve"); ("op", "fig2") ]
         ())
  in
  let cpu = reply {|{"op":"fig2","version":"cpu"}|} in
  let check_str what expected j k =
    Alcotest.(check (option string)) what (Some expected) (str_field j k)
  in
  check_str "cpu keeps its name" "cpu" cpu "version";
  check_str "cpu keeps the requested machine" Gpusim.Machine.v100.Gpusim.Machine.name cpu
    "machine";
  check_str "cpu emits for the scalar profile" "scalar-1core" cpu "cpu_machine";
  check_str "cpu digest is the request's key" (digest ~machine:Gpusim.Machine.v100 "cpu")
    cpu "digest";
  Alcotest.(check bool) "cpu has no simulated time" true (J.member "time_us" cpu = None);
  let avx2 = Gpusim.Machine.avx2_8core in
  let infl = reply {|{"op":"fig2","version":"infl","machine":"avx2-8core"}|} in
  check_str "infl on avx2" "infl" infl "version";
  check_str "infl emits for avx2" "avx2-8core" infl "cpu_machine";
  Alcotest.(check bool) "infl on a CPU profile has no simulated time" true
    (J.member "time_us" infl = None);
  check_str "infl on avx2 digest" (digest ~machine:avx2 "infl") infl "digest";
  let cpu_avx2 = reply {|{"op":"fig2","version":"cpu","machine":"avx2-8core"}|} in
  (match (str_field infl "source", str_field cpu_avx2 "source") with
   | Some a, Some b ->
     has Codegen_cpu.Cemit.entry_symbol a;
     Alcotest.(check string) "infl and cpu on avx2 emit the same C" b a
   | _ -> Alcotest.fail "a C reply lacks its source");
  let gpu = reply {|{"op":"fig2","version":"infl"}|} in
  Alcotest.(check bool) "infl on the default machine is simulated" true
    (J.member "time_us" gpu <> None && J.member "source" gpu = None);
  let bad = Service.Serve.handle_line h {|{"op":"fig2","version":"warp"}|} in
  has {|(isl|novec|infl|tiled|cpu)|} bad

(* A handler that takes inline kernels, and the request for the kernel
   whose one statement S writes [write] = [rhs] for i < [extent]. *)
let inline_handler () =
  let kernel_of_json j = Result.bind (Fuzz.Case.of_json j) Fuzz.Case.to_kernel in
  Service.Serve.make_handler ~kernel_of_json:(Some kernel_of_json) ~find_op:find_classic ()

let inline_request ~tensors ~extent ~write ~rhs =
  let stmts = [ { Fuzz.Case.sname = "S"; iters = [ ("i", extent) ]; write; rhs } ] in
  let case = { Fuzz.Case.name = "k"; tensors; stmts } in
  J.to_string (J.Assoc [ ("kernel", Fuzz.Case.to_json case); ("id", J.String "k") ])

let at_i tensor =
  { Fuzz.Case.tensor; index = [ { Fuzz.Case.coef = 1; iter = Some "i"; offset = 0 } ] }

(* An inline kernel with a non-positive iterator extent is a structured
   error, and the loop keeps answering. *)
let test_serve_bad_extent () =
  reset ();
  let h = inline_handler () in
  let line extent =
    inline_request ~tensors:[ ("A", [ 4 ]) ] ~extent ~write:(at_i "A") ~rhs:(Fuzz.Case.Const 1.0)
  in
  List.iter
    (fun extent ->
      let bad = Service.Serve.handle_line h (line extent) in
      has {|"status":"error"|} bad;
      has "non-positive extent" bad;
      has {|"status":"ok"|} (Service.Serve.handle_line h {|{"op":"fig2"}|}))
    [ 0; -3 ];
  has {|"status":"ok"|} (Service.Serve.handle_line h (line 4))

(* Inline copies B[i] = A[i] too large for a bitmap or for an [int]: 2^40
   elements simulate (the footprint probe keeps their sectors in a set),
   while a byte size (2^62 - 1 and 2^61 elements) or a summed tensor
   layout (2^59 elements each) that overflows [int] is a kernel error.
   Every request gets one reply. *)
let test_serve_huge_kernels () =
  reset ();
  let h = inline_handler () in
  let reply n =
    Service.Serve.handle_line h
      (inline_request ~tensors:[ ("A", [ n ]); ("B", [ n ]) ] ~extent:n ~write:(at_i "B")
         ~rhs:(Fuzz.Case.Load (at_i "A")))
  in
  has {|"status":"ok"|} (reply (1 lsl 40));
  List.iter
    (fun n ->
      let r = reply n in
      has {|"status":"error"|} r;
      has "overflows int" r)
    [ max_int; 1 lsl 61; 1 lsl 59 ]

(* the serve loop answers every line — blank included — so request and
   reply counts always match *)
let test_serve_loop_blank_lines () =
  reset ();
  let h = Service.Serve.make_handler ~find_op:find_classic () in
  let dir = Filename.get_temp_dir_name () in
  let in_file = Filename.temp_file ~temp_dir:dir "serve_in" ".jsonl" in
  let out_file = Filename.temp_file ~temp_dir:dir "serve_out" ".jsonl" in
  let oc = open_out in_file in
  output_string oc "{\"verb\":\"health\"}\n\n{\"verb\":\"health\"}\n";
  close_out oc;
  let ic = open_in in_file and out = open_out out_file in
  Service.Serve.serve h ic out;
  close_in ic;
  close_out out;
  let ic = open_in out_file in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  Alcotest.(check int) "one reply per input line" 3 (List.length lines);
  has {|empty request|} (List.nth lines 1);
  has {|"health":"ok"|} (List.nth lines 2);
  Sys.remove in_file;
  Sys.remove out_file

let () =
  Alcotest.run "service"
    [ ( "key",
        [ Alcotest.test_case "stability" `Quick test_key_stability;
          Alcotest.test_case "eval key pinned" `Quick test_eval_key_pinned
        ] );
      ( "pool",
        [ Alcotest.test_case "order and counters" `Quick test_pool_order_and_counters;
          Alcotest.test_case "exceptions" `Quick test_pool_exception;
          Alcotest.test_case "parallelizable guard" `Quick test_pool_parallelizable;
          Alcotest.test_case "histogram determinism" `Quick
            test_pool_histogram_determinism;
          Alcotest.test_case "request propagation" `Quick test_pool_request_propagation
        ] );
      ( "cache",
        [ Alcotest.test_case "roundtrip" `Quick test_cache_roundtrip;
          Alcotest.test_case "corruption" `Quick test_cache_corrupt;
          Alcotest.test_case "format bump" `Quick test_cache_format_bump;
          Alcotest.test_case "eviction" `Quick test_cache_eviction
        ] );
      ( "batch",
        [ Alcotest.test_case "cache roundtrip" `Quick test_batch_cache_roundtrip;
          Alcotest.test_case "hits carry no obs" `Quick test_batch_hits_carry_no_obs;
          Alcotest.test_case "old payload decodes" `Quick test_batch_old_payload_decodes;
          Alcotest.test_case "corrupt entry" `Quick test_batch_corrupt_entry_recomputes;
          Alcotest.test_case "jobs determinism" `Quick test_suite_determinism_across_jobs
        ] );
      ( "serve",
        [ Alcotest.test_case "scripted requests" `Quick test_serve_requests;
          Alcotest.test_case "input guards" `Quick test_serve_guards;
          Alcotest.test_case "verbs and ids" `Quick test_serve_verbs_and_ids;
          Alcotest.test_case "strategy field" `Quick test_serve_strategy_field;
          Alcotest.test_case "backend axis" `Quick test_serve_backend_axis;
          Alcotest.test_case "bad extent" `Quick test_serve_bad_extent;
          Alcotest.test_case "huge kernels" `Quick test_serve_huge_kernels;
          Alcotest.test_case "loop answers blank lines" `Quick
            test_serve_loop_blank_lines
        ] )
    ]
