(* Tests for the compile service (lib/service): cache key stability, the
   on-disk cache's hit/miss/corruption/eviction behavior, worker-pool
   determinism, cache-aware suite evaluation, and the serve front end. *)

let reset () = Obs.reset_all ()

let classic name =
  match List.assoc_opt name Ops.Classics.all with
  | Some mk -> mk ()
  | None -> Alcotest.failf "missing classic operator %s" name

let find_classic name = Option.map (fun mk -> mk ()) (List.assoc_opt name Ops.Classics.all)

(* cache directories are flat *)
let remove_dir d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Sys.rmdir d
  end

(* a cache directory of its own, removed when the test process exits *)
let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "akg_service_test_%d_%d" (Unix.getpid ()) !n)
    in
    remove_dir d;
    at_exit (fun () -> try remove_dir d with Sys_error _ -> ());
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

(* A kernel's digest is exact past [%g], blind to the name (which the key
   adds), and follows the stored order of its domain constraints. *)
let test_kernel_digest () =
  let open Ir in
  let v100 = Gpusim.Machine.v100 in
  let square = Build.rect [ ("i", 4); ("j", 4) ] in
  let kernel ?(name = "k") ?(domain = square) c =
    Kernel.make ~name ~tensors:[ Build.tensor "A" [ 4; 4 ] ]
      ~stmts:
        [ Stmt.make ~name:"S" ~iters:[ "i"; "j" ] ~domain
            ~write:(Build.access "A" [ "i"; "j" ])
            ~rhs:(Expr.const c) ]
      ()
  in
  let digest = Kernel.digest in
  let key kernel =
    Service.Key.digest (Service.Key.make ~kernel ~machine:v100 ~version:"eval" ())
  in
  let k = kernel 0.1 in
  Alcotest.(check string) "deterministic" (digest k) (digest (kernel 0.1));
  Alcotest.(check string) "%g prints both constants alike"
    (Format.asprintf "%a" Kernel.pp k)
    (Format.asprintf "%a" Kernel.pp (kernel ~name:"k" 0.1000001));
  Alcotest.(check bool) "constants past %g differ" false (digest k = digest (kernel 0.1000001));
  let renamed = kernel ~name:"k2" 0.1 in
  Alcotest.(check string) "a rename keeps the digest" (digest k) (digest renamed);
  Alcotest.(check bool) "a rename changes the key" false (key k = key renamed);
  (* swapping i and j maps the square onto itself but leaves its
     constraints in the order they had before the swap *)
  let swapped =
    Polyhedra.Polyhedron.rename (function "i" -> "j" | "j" -> "i" | x -> x) square
  in
  let sorted p = List.sort Polyhedra.Constr.compare (Polyhedra.Polyhedron.constraints p) in
  Alcotest.(check bool) "the same constraints" true
    (List.equal Polyhedra.Constr.equal (sorted square) (sorted swapped));
  Alcotest.(check bool) "in another order" false
    (List.equal Polyhedra.Constr.equal
       (Polyhedra.Polyhedron.constraints square)
       (Polyhedra.Polyhedron.constraints swapped));
  Alcotest.(check bool) "reordered constraints change the digest" false
    (digest k = digest (kernel ~domain:swapped 0.1))

(* Over the zoo and the classics, kernels with one name and digest are
   exactly the kernels that print alike; without the name, the 223 zoo
   operators fall into 86 classes. *)
let test_digest_partition () =
  let zoo =
    List.concat_map (fun n -> List.map snd (Lazy.force n.Ops.Networks.ops)) Ops.Networks.all
  in
  let kernels = zoo @ List.map (fun (_, mk) -> mk ()) Ops.Classics.all in
  let classes f l = List.length (List.sort_uniq compare (List.map f l)) in
  let id k = (k.Ir.Kernel.name, Ir.Kernel.digest k) in
  let text k = Format.asprintf "%a" Ir.Kernel.pp k in
  let n = classes id kernels in
  Alcotest.(check int) "zoo operators" 223 (List.length zoo);
  Alcotest.(check int) "text classes" n (classes text kernels);
  Alcotest.(check int) "classes of both together" n (classes (fun k -> (id k, text k)) kernels);
  Alcotest.(check int) "name-free classes" 86 (classes Ir.Kernel.digest zoo)

(* The on-disk name of fig2's Table II entry: a change to eval_key's
   preimage (the kernel digest and name, the machine encoding) orphans
   every existing .akg-cache entry and shows up here first.  A deliberate
   Key.format_version bump moves it too; update the literal then. *)
let test_eval_key_pinned () =
  Alcotest.(check string)
    "fig2 on v100" "6f2208f77f99b0686e1495ef98a783de"
    (Service.Key.digest
       (Service.Batch.eval_key (classic "fig2")))

(* Every kernel's digest, pinned as the MD5 of their concatenation: the
   zoo, the classics and fuzz seed 42's cases 0-199.  Rendering a
   rational natively must print what Bigint prints. *)
let test_digests_pinned () =
  let kernels =
    List.concat_map
      (fun (n : Ops.Networks.t) -> List.map snd (Lazy.force n.Ops.Networks.ops))
      Ops.Networks.all
    @ List.map (fun (_, mk) -> mk ()) Ops.Classics.all
    @ List.init 200 (fun index ->
          match Fuzz.Case.to_kernel (Fuzz.Generate.generate ~seed:42 ~index ()) with
          | Ok k -> k
          | Error m -> Alcotest.failf "fuzz case %d: %s" index m)
  in
  Alcotest.(check int) "kernels" 438 (List.length kernels);
  Alcotest.(check string)
    "the digests" "707cebe9f42c9e476e497d3707b37f15"
    (Digest.to_hex (Digest.string (String.concat "" (List.map Ir.Kernel.digest kernels))))

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

let file_size path = (Unix.stat path).Unix.st_size

(* the running count keeps stores below the cap off the directory: one
   scan (the open's) however many stores follow *)
let test_cache_no_scan_below_cap () =
  reset ();
  let c = Service.Cache.open_ (fresh_dir ()) in
  let keys = List.init 300 (fun i -> key (Printf.sprintf "below%d" i)) in
  List.iter (fun k -> Service.Cache.store c k (payload "v")) keys;
  Alcotest.(check int) "only the open scanned" 1 (counter "service.cache_scans");
  let s = Service.Cache.stats c in
  Alcotest.(check int) "every entry on disk" 300 s.Service.Cache.entries;
  Alcotest.(check int)
    "stats bytes are the files' sizes"
    (List.fold_left (fun acc k -> acc + file_size (Service.Cache.entry_path c k)) 0 keys)
    s.Service.Cache.bytes

(* a rewrite replaces its entry's bytes instead of adding to them *)
let test_cache_rewrite_counted_once () =
  reset ();
  let dir = fresh_dir () in
  let probe = Service.Cache.open_ dir in
  let k = key "rewrite" in
  Service.Cache.store probe k (payload "v");
  let entry_bytes = file_size (Service.Cache.entry_path probe k) in
  let c = Service.Cache.open_ ~max_bytes:(3 * entry_bytes / 2) dir in
  for _ = 1 to 20 do
    Service.Cache.store c k (payload "v")
  done;
  Alcotest.(check int) "nothing evicted" 0 (counter "service.cache_evictions");
  Alcotest.(check int) "no rescan" 2 (counter "service.cache_scans");
  Alcotest.(check bool)
    "the entry survives" true
    (Service.Cache.find c k = Some (payload "v"))

(* a full cache stays under its cap after every store, keeps what it
   just stored, and rescans once per eighth of the cap stored: with a
   16-entry cap, once per three stores at most (plus the two opens) *)
let test_cache_full_amortizes () =
  reset ();
  let dir = fresh_dir () in
  let probe = Service.Cache.open_ dir in
  Service.Cache.store probe (key "full0") (payload "v");
  let entry_bytes = file_size (Service.Cache.entry_path probe (key "full0")) in
  let cap = 16 * entry_bytes in
  let c = Service.Cache.open_ ~max_bytes:cap dir in
  for i = 1 to 200 do
    let k = key (Printf.sprintf "full%d" i) in
    Service.Cache.store c k (payload "v");
    let s = Service.Cache.stats c in
    if s.Service.Cache.bytes > cap then
      Alcotest.failf "store %d left %d bytes over a %d-byte cap" i s.Service.Cache.bytes cap;
    if not (Sys.file_exists (Service.Cache.entry_path c k)) then
      Alcotest.failf "store %d evicted its own entry" i
  done;
  let scans = counter "service.cache_scans" in
  Alcotest.(check bool)
    (Printf.sprintf "far fewer scans than stores (%d)" scans)
    true (scans <= 2 + (200 / 3) + 1);
  Alcotest.(check int)
    "every eviction accounted for"
    (201 - (Service.Cache.stats c).Service.Cache.entries)
    (counter "service.cache_evictions")

(* another handle's writes are invisible to the running count until this
   handle's next rescan, which then sees the directory's true total *)
let test_cache_other_handle () =
  reset ();
  let dir = fresh_dir () in
  let probe = Service.Cache.open_ dir in
  Service.Cache.store probe (key "other0") (payload "v");
  let entry_bytes = file_size (Service.Cache.entry_path probe (key "other0")) in
  let cap = 8 * entry_bytes in
  let a = Service.Cache.open_ ~max_bytes:cap dir in
  let b = Service.Cache.open_ ~max_bytes:max_int dir in
  for i = 1 to 20 do
    Service.Cache.store b (key (Printf.sprintf "otherB%d" i)) (payload "v")
  done;
  Alcotest.(check bool)
    "B filled past A's cap" true
    ((Service.Cache.stats a).Service.Cache.bytes > cap);
  (* A's count is still the one entry it saw at open: stores stay cheap
     until that count itself passes the cap *)
  let i = ref 0 in
  while (Service.Cache.stats a).Service.Cache.bytes > cap && !i < 16 do
    incr i;
    Service.Cache.store a (key (Printf.sprintf "otherA%d" !i)) (payload "v")
  done;
  Alcotest.(check bool)
    "A's over-cap store brought the directory under the cap" true
    ((Service.Cache.stats a).Service.Cache.bytes <= cap);
  Alcotest.(check bool)
    "A's latest entry survives" true
    (Service.Cache.find a (key (Printf.sprintf "otherA%d" !i)) = Some (payload "v"))

(* Every damaged copy of an entry either reads back as the identical
   payload or is dropped as corrupt; find never raises, each drop counts
   once, and a later store works. *)
let test_cache_damaged_files () =
  reset ();
  let c = Service.Cache.open_ (fresh_dir ()) in
  let k = key "damage" in
  let p =
    Obs.Json.Assoc
      [ ("op", Obs.Json.String "fig2"); ("rows", Obs.Json.Int 12);
        ("time_us", Obs.Json.Float 11.890625); ("legal", Obs.Json.Bool true);
        ("source", Obs.Json.String "for (i = 0; i < 8; i++)\n  a[i] = \"x\";");
        ("dims", Obs.Json.List [ Obs.Json.Int 0; Obs.Json.Int 31; Obs.Json.Null ])
      ]
  in
  Service.Cache.store c k p;
  let path = Service.Cache.entry_path c k in
  let ic = open_in_bin path in
  let good = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let drops = ref 0 and tries = ref 0 in
  let try_damaged what contents =
    incr tries;
    let oc = open_out_bin path in
    output_string oc contents;
    close_out oc;
    let before = counter "service.cache_corrupt" in
    (match Service.Cache.find c k with
     | exception e -> Alcotest.failf "%s: find raised %s" what (Printexc.to_string e)
     | Some got when Obs.Json.equal got p -> ()
     | Some got -> Alcotest.failf "%s: find returned %s" what (Obs.Json.to_string got)
     | None ->
       incr drops;
       if Sys.file_exists path then Alcotest.failf "%s: corrupt file kept" what);
    Alcotest.(check int)
      (what ^ ": corrupt count")
      (if Sys.file_exists path then before else before + 1)
      (counter "service.cache_corrupt")
  in
  let n = String.length good in
  for len = 0 to n - 1 do
    try_damaged (Printf.sprintf "truncated to %d" len) (String.sub good 0 len)
  done;
  List.iter
    (fun mask ->
      for i = 0 to n - 1 do
        let b = Bytes.of_string good in
        Bytes.set b i (Char.chr (Char.code good.[i] lxor mask));
        try_damaged (Printf.sprintf "byte %d xor %#x" i mask) (Bytes.to_string b)
      done)
    [ 0x01; 0x20; 0x80 ];
  Alcotest.(check bool) "most damage is caught" true (!drops > !tries / 2);
  Alcotest.(check int) "each drop counted" !drops (counter "service.cache_corrupt");
  Service.Cache.store c k p;
  Alcotest.(check bool)
    "a later store works" true
    (Option.map (Obs.Json.equal p) (Service.Cache.find c k) = Some true)

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
  let k = Service.Batch.eval_key (classic name) in
  let oc = open_out (Service.Cache.entry_path cache k) in
  output_string oc "garbage";
  close_out oc;
  let again = render (Service.Batch.evaluate_suite ~cache (suite ())) in
  Alcotest.(check string) "recomputed results identical" cold again;
  Alcotest.(check int) "only the intact entry hits" 1 (counter "service.cache_hits");
  Alcotest.(check bool)
    "corrupt entry was recomputed and re-stored" true
    (Service.Cache.find cache k <> None)

(* A cache directory removed before the stores loses the entries, not
   the rows: every row comes back as an uncached run computes it, and
   each failed store is counted. *)
let test_batch_store_failure () =
  reset ();
  let uncached = render (Service.Batch.evaluate_suite (suite ())) in
  let dir = fresh_dir () in
  let cache = Service.Cache.open_ dir in
  remove_dir dir;
  let rows =
    match Service.Batch.evaluate_suite ~cache (suite ()) with
    | exception e -> Alcotest.failf "evaluate_suite raised %s" (Printexc.to_string e)
    | rows -> render rows
  in
  Alcotest.(check string) "every row" uncached rows;
  Alcotest.(check int) "failed stores counted" (List.length suite_ops)
    (counter "service.cache_store_failures");
  Alcotest.(check int) "nothing stored" 0 (counter "service.cache_stores");
  Alcotest.(check bool) "no directory made" false (Sys.file_exists dir)

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
  let h = Service.Serve.make_handler ~find_op:find_classic () in
  let reply line = Service.Serve.handle_line h line in
  let r_blank = reply "" in
  has {|"status":"error"|} r_blank;
  has {|empty request|} r_blank;
  let r_ws = reply "   " in
  has {|empty request|} r_ws;
  let limit = Service.Serve.default_max_request_bytes in
  let r_big = reply (String.make (limit + 1) 'x') in
  has {|"status":"error"|} r_big;
  has {|request too large|} r_big;
  (* a line of exactly the limit is parsed, and fails as JSON *)
  let r_limit = reply (String.make limit 'x') in
  has {|parse|} r_limit;
  Alcotest.(check bool) "a line at the limit is not too large" false
    (let re = Str.regexp_string "request too large" in
     try ignore (Str.search_forward re r_limit 0); true with Not_found -> false);
  let r_verb = reply {|{"verb":"frobnicate"}|} in
  has {|"status":"error"|} r_verb;
  has {|unknown verb|} r_verb;
  let r_verb_ty = reply {|{"verb":42}|} in
  has {|verb must be a string|} r_verb_ty;
  Alcotest.(check int) "all guarded requests counted" 6
    (counter "service.serve_requests");
  Alcotest.(check int) "every guard is a structured error" 6
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

module J = Obs.Json

(* A field serve does not read, such as the old "strategy", is ignored:
   the request is answered exactly like one without it and shares its
   cache entry. *)
let test_serve_unknown_fields () =
  reset ();
  let uncached = Service.Serve.make_handler ~find_op:find_classic () in
  let answer line =
    match J.of_string (Service.Serve.handle_line uncached line) with
    | Ok (J.Assoc kvs) ->
      J.to_string
        (J.Assoc (List.filter (fun (k, _) -> not (List.mem k [ "id"; "elapsed_us"; "spans" ])) kvs))
    | _ -> Alcotest.failf "unparseable reply to %s" line
  in
  let plain = answer {|{"op":"fig2"}|} in
  has {|"status":"ok"|} plain;
  List.iter
    (fun line -> Alcotest.(check string) line plain (answer line))
    [ {|{"op":"fig2","strategy":"ilp-only"}|};
      {|{"op":"fig2","strategy":"bogus"}|};
      {|{"op":"fig2","foo":1}|}
    ];
  let cache = Service.Cache.open_ (fresh_dir ()) in
  let reply = Service.Serve.handle_line (Service.Serve.make_handler ~cache ~find_op:find_classic ()) in
  let first = reply {|{"op":"fig2","id":"s"}|} in
  has {|"cached":false|} first;
  let second = reply {|{"op":"fig2","strategy":"ilp-only","id":"s"}|} in
  has {|"cached":true|} second;
  Alcotest.(check string) "one cache entry for both"
    (Str.global_replace (Str.regexp_string {|"cached":false|}) {|"cached":true|}
       (scrub first))
    (scrub second)

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
         ~flags:[ ("entry", "serve") ]
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

(* Serve keys: every request's key is [Key.make]'s for the kernel
   [find_op] returns and the requested machine.  Another kernel under the
   same name, or another machine, gets its own key and misses; an equal
   fresh kernel keys the same; a machine sharing the stock V100's name is
   still another machine. *)
let test_serve_keys () =
  reset ();
  let cache = Service.Cache.open_ (fresh_dir ()) in
  let small = classic "transpose_add" and other = classic "reduce_2d" in
  let current = ref small in
  let h =
    Service.Serve.make_handler ~cache
      ~find_op:(fun n -> if n = "op" then Some !current else None)
      ()
  in
  let reply line = fields (Service.Serve.handle_line h line) in
  let digest ?(machine = Gpusim.Machine.v100) kernel =
    Service.Key.digest
      (Service.Key.make ~kernel ~machine ~version:"infl"
         ~flags:[ ("entry", "serve") ]
         ())
  in
  let check_reply what ~cached ~digest:d j =
    Alcotest.(check (option string)) (what ^ ": digest") (Some d) (str_field j "digest");
    Alcotest.(check bool) (what ^ ": cached") true (J.member "cached" j = Some (J.Bool cached))
  in
  let request = {|{"op":"op"}|} in
  check_reply "first" ~cached:false ~digest:(digest small) (reply request);
  check_reply "same kernel" ~cached:true ~digest:(digest small) (reply request);
  current := other;
  check_reply "other kernel, same name" ~cached:false ~digest:(digest other) (reply request);
  Alcotest.(check bool) "the two kernels' keys differ" false (digest small = digest other);
  current := classic "reduce_2d";
  check_reply "equal fresh kernel" ~cached:true ~digest:(digest other) (reply request);
  check_reply "its repeat" ~cached:true ~digest:(digest other) (reply request);
  let a100 = Gpusim.Machine.a100 in
  let on_a100 = {|{"op":"op","machine":"a100"}|} in
  check_reply "another machine" ~cached:false ~digest:(digest ~machine:a100 !current)
    (reply on_a100);
  check_reply "another machine, again" ~cached:true ~digest:(digest ~machine:a100 !current)
    (reply on_a100);
  check_reply "back on the default" ~cached:true ~digest:(digest other) (reply request);
  let tuned = { Gpusim.Machine.v100 with Gpusim.Machine.clock_hz = 1e9 } in
  Alcotest.(check bool) "a tuned v100 keys apart" false
    (digest ~machine:tuned other = digest other);
  check_reply "the default by name" ~cached:true ~digest:(digest other)
    (reply {|{"op":"op","machine":"v100"}|})

(* Inline kernels are decoded per request and never share an operator. *)
let test_serve_inline_not_memoized () =
  reset ();
  let h =
    let kernel_of_json j = Result.bind (Fuzz.Case.of_json j) Fuzz.Case.to_kernel in
    Service.Serve.make_handler ~kernel_of_json ~find_op:find_classic ()
  in
  let line =
    J.to_string
      (J.Assoc
         [ ( "kernel",
             Fuzz.Case.to_json
               { Fuzz.Case.name = "k";
                 tensors = [ ("A", [ 4 ]) ];
                 stmts =
                   [ { Fuzz.Case.sname = "S"; iters = [ ("i", 4) ];
                       write =
                         { Fuzz.Case.tensor = "A";
                           index = [ { Fuzz.Case.coef = 1; iter = Some "i"; offset = 0 } ]
                         };
                       rhs = Fuzz.Case.Const 1.0 } ] } ) ])
  in
  let a = fields (Service.Serve.handle_line h line) in
  let b = fields (Service.Serve.handle_line h line) in
  Alcotest.(check (option string)) "same inline kernel, same digest" (str_field a "digest")
    (str_field b "digest");
  Alcotest.(check int) "no operator shared" 0 (counter "pipeline.schedule_reuses");
  Alcotest.(check int) "each request analyses its kernel" 2 (counter "deps.analyses")

(* ------------------------------------------------------------------ *)
(* Serve: one operator per name                                         *)
(* ------------------------------------------------------------------ *)

let versions = [ "isl"; "novec"; "infl"; "tiled"; "cpu" ]

(* a reply without the fields that differ between equal answers *)
let answer reply =
  match J.of_string reply with
  | Ok (J.Assoc kvs) ->
    J.to_string
      (J.Assoc (List.filter (fun (k, _) -> not (List.mem k [ "id"; "elapsed_us"; "spans" ])) kvs))
  | _ -> Alcotest.failf "not a JSON object: %s" reply

let version_request ?(op = "op") v =
  J.to_string (J.Assoc [ ("op", J.String op); ("version", J.String v) ])

(* The deltas of the counters that show what a miss shared. *)
let shared_work deltas =
  List.map
    (fun c -> (c, Option.value ~default:0 (List.assoc_opt c deltas)))
    [ "deps.analyses"; "vectorizer.trees_built"; "pipeline.schedule_reuses" ]

(* The five versions of one classic through one handler, in two orders:
   each reply is the one a cold handler gives for that request alone; the
   handler analysed the kernel once and built one vectorizer tree, whose
   schedule infl and cpu took from novec's run (or novec and infl from
   cpu's).  layernorm_chain's infl schedule needs dimension ILPs. *)
let test_serve_operator_reuse () =
  reset ();
  let kernel = classic "layernorm_chain" in
  let find_op n = if n = "op" then Some kernel else None in
  let cold v =
    answer (Service.Serve.handle_line (Service.Serve.make_handler ~find_op ()) (version_request v))
  in
  let expected = List.map (fun v -> (v, cold v)) versions in
  (match J.member "ilp_solves" (fields (List.assoc "infl" expected)) with
   | Some (J.Int n) when n > 0 -> ()
   | _ -> Alcotest.fail "layernorm_chain's infl schedule solves no ILP");
  List.iter
    (fun (label, order) ->
      let h = Service.Serve.make_handler ~find_op () in
      let replies, deltas =
        counter_deltas (fun () ->
            List.map (fun v -> (v, Service.Serve.handle_line h (version_request v))) order)
      in
      List.iter
        (fun (v, reply) ->
          Alcotest.(check string) (label ^ " " ^ v ^ " = cold") (List.assoc v expected)
            (answer reply))
        replies;
      Alcotest.(check (list (pair string int)))
        (label ^ ": shared work")
        [ ("deps.analyses", 1); ("vectorizer.trees_built", 1); ("pipeline.schedule_reuses", 2) ]
        (shared_work deltas))
    [ ("in order", versions); ("reversed", List.rev versions) ]

(* Operators are shared by digest: a kernel [find_op]
   returns under the same name but with other contents (here another
   extent per request) is a new operator, and nothing is shared with the
   previous one. *)
let test_serve_new_kernel_no_reuse () =
  reset ();
  let calls = ref 0 in
  let find_op n =
    incr calls;
    if n = "op" then Some (Ops.Classics.transpose_add ~m:(32 * !calls) ()) else None
  in
  let h = Service.Serve.make_handler ~find_op () in
  let _, deltas =
    counter_deltas (fun () ->
        List.iter (fun v -> has {|"status":"ok"|} (Service.Serve.handle_line h (version_request v))) versions)
  in
  Alcotest.(check (list (pair string int)))
    "one operator per kernel"
    [ ("deps.analyses", 5); ("vectorizer.trees_built", 3); ("pipeline.schedule_reuses", 0) ]
    (shared_work deltas)

(* A statement whose domain 5 <= i <= 3 is empty: the vectorizer client
   raises on it.  No zoo or fuzz kernel fails to schedule, so this is the
   failing run the operator must not keep: every vectorizer-client request
   runs the client again and fails the same way, and the handler keeps
   answering. *)
let empty_domain_kernel () =
  let s =
    Ir.Stmt.make ~name:"S" ~iters:[ "i" ]
      ~domain:(Ir.Build.rect_from [ ("i", 5, 3) ])
      ~write:(Ir.Build.access "B" [ "i" ])
      ~rhs:(Ir.Expr.Load (Ir.Build.access "A" [ "i" ]))
  in
  Ir.Kernel.make ~name:"empty"
    ~tensors:[ Ir.Build.tensor "A" [ 8 ]; Ir.Build.tensor "B" [ 8 ] ]
    ~stmts:[ s ] ()

let test_serve_failure_not_retained () =
  reset ();
  let kernel = empty_domain_kernel () in
  let find_op n = if n = "op" then Some kernel else None in
  let h = Service.Serve.make_handler ~find_op () in
  let cold v = answer (Service.Serve.handle_line (Service.Serve.make_handler ~find_op ()) (version_request v)) in
  let reuses0 = counter "pipeline.schedule_reuses" in
  let replies, capture =
    Obs.scoped (fun () ->
        List.map
          (fun v -> Service.Serve.handle_line h (version_request v))
          [ "novec"; "infl"; "novec" ])
  in
  Obs.merge capture;
  let treegens =
    List.fold_left
      (fun n (path, calls, _) ->
        if Filename.basename path = "vectorizer.treegen" then n + calls else n)
      0 (Obs.spans capture)
  in
  List.iter2
    (fun v reply ->
      has {|"status":"error"|} reply;
      Alcotest.(check string) (v ^ ": the cold reply") (cold v) (answer reply))
    [ "novec"; "infl"; "novec" ] replies;
  Alcotest.(check int) "no failed schedule reused" reuses0 (counter "pipeline.schedule_reuses");
  Alcotest.(check int) "every request ran the client" 3 treegens;
  has {|"status":"ok"|} (Service.Serve.handle_line h (version_request "isl"))

module P = Harness.Pipeline

(* The operator keeps its own copy of the shared schedule's statistics:
   mutating one run's [stats] changes no later run. *)
let test_stats_copied () =
  let kernel = classic "layernorm_chain" in
  let cold v = (P.run v (P.operator kernel)).P.stats in
  let op = P.operator kernel in
  let scribble (s : Scheduling.Scheduler.stats) =
    s.ilp_solves <- -1;
    s.fastpath_hits <- -1;
    s.influence_abandoned <- not s.influence_abandoned
  in
  List.iter
    (fun v ->
      let p = P.run v op in
      if p.P.stats <> cold v then Alcotest.failf "%s: stats differ from a fresh run's" (P.name v);
      scribble p.P.stats)
    [ P.Novec; P.Infl; P.Novec; P.Infl ]

(* A handler that takes inline kernels, and the request for the kernel
   whose one statement S writes [write] = [rhs] for i < [extent]. *)
let inline_handler () =
  let kernel_of_json j = Result.bind (Fuzz.Case.of_json j) Fuzz.Case.to_kernel in
  Service.Serve.make_handler ~kernel_of_json ~find_op:find_classic ()

let inline_request ~tensors ~extent ~write ~rhs =
  let stmts = [ { Fuzz.Case.sname = "S"; iters = [ ("i", extent) ]; write; rhs } ] in
  let case = { Fuzz.Case.name = "k"; tensors; stmts } in
  J.to_string (J.Assoc [ ("kernel", Fuzz.Case.to_json case); ("id", J.String "k") ])

let at_i tensor =
  { Fuzz.Case.tensor; index = [ { Fuzz.Case.coef = 1; iter = Some "i"; offset = 0 } ] }

(* Damaged request lines: every prefix, and every byte xor 0x01, 0x20 and
   0x80, of a named request, an inline-kernel request and a metrics
   request, all through one handler.  Each gets exactly one single-line
   JSON reply whose status is ok or error, never an exception; afterwards
   the handler still answers the named request as a cold one does. *)
let test_serve_damaged_requests () =
  reset ();
  let kernel_of_json j = Result.bind (Fuzz.Case.of_json j) Fuzz.Case.to_kernel in
  let kernel = classic "transpose_add" in
  let find_op n = if n = "transpose_add" then Some kernel else None in
  let handler () = Service.Serve.make_handler ~kernel_of_json ~find_op () in
  let h = handler () in
  let named = {|{"op":"transpose_add","version":"novec","id":"n"}|} in
  let inline =
    inline_request ~tensors:[ ("A", [ 4 ]); ("B", [ 4 ]) ] ~extent:4 ~write:(at_i "B")
      ~rhs:(Fuzz.Case.Load (at_i "A"))
  in
  let metrics = {|{"verb":"metrics","id":"m"}|} in
  let statuses = Hashtbl.create 2 and sent = ref 0 in
  let one line =
    incr sent;
    match Service.Serve.handle_line h line with
    | exception e -> Alcotest.failf "%S raised %s" line (Printexc.to_string e)
    | reply -> (
      if String.contains reply '\n' then Alcotest.failf "%S: a multi-line reply" line;
      match J.member "status" (fields reply) with
      | Some (J.String (("ok" | "error") as st)) -> Hashtbl.replace statuses st ()
      | _ -> Alcotest.failf "%S: reply without a status: %s" line reply)
  in
  List.iter
    (fun good ->
      let n = String.length good in
      for len = 0 to n do
        one (String.sub good 0 len)
      done;
      List.iter
        (fun mask ->
          for i = 0 to n - 1 do
            let b = Bytes.of_string good in
            Bytes.set b i (Char.chr (Char.code good.[i] lxor mask));
            one (Bytes.to_string b)
          done)
        [ 0x01; 0x20; 0x80 ])
    [ named; inline; metrics ];
  (* deep nesting: 1 MiB of [, and nesting in each request field; huge
     integers in each scalar field *)
  let nested = String.make 500_000 '[' ^ String.make 500_000 ']' in
  let digits = String.make 400 '9' in
  let fields = [ "id"; "op"; "version"; "machine"; "verb"; "kernel" ] in
  one (String.make Service.Serve.default_max_request_bytes '[');
  List.iter
    (fun value ->
      List.iter
        (fun field ->
          if field = "op" then one (Printf.sprintf {|{"op":%s}|} value)
          else one (Printf.sprintf {|{"op":"transpose_add","%s":%s}|} field value))
        fields)
    [ nested; digits ];
  Alcotest.(check bool) "both outcomes seen" true
    (Hashtbl.mem statuses "ok" && Hashtbl.mem statuses "error");
  Alcotest.(check int) "every line answered" !sent (counter "service.serve_requests");
  Alcotest.(check string) "still answers like a cold handler"
    (answer (Service.Serve.handle_line (handler ()) named))
    (answer (Service.Serve.handle_line h named))

(* The key names the kernel, not the spelling of its name: a second
   spelling that [find_op] resolves to the same kernel is a cache hit with
   the first's answer, echoes its own op, and stores nothing new. *)
let test_serve_two_spellings () =
  reset ();
  let dir = fresh_dir () in
  let cache = Service.Cache.open_ dir in
  let kernel = Lazy.force Ops.Networks.lstm.Ops.Networks.ops |> List.assoc "lstm_ew_000" in
  let find_op n =
    if String.lowercase_ascii n = "lstm/lstm_ew_000" then Some kernel else None
  in
  let h = Service.Serve.make_handler ~cache ~find_op () in
  let reply op = fields (Service.Serve.handle_line h (version_request ~op "isl")) in
  let first = reply "lstm/lstm_ew_000" and second = reply "LSTM/lstm_ew_000" in
  Alcotest.(check bool) "first misses" true (J.member "cached" first = Some (J.Bool false));
  Alcotest.(check bool) "second hits" true (J.member "cached" second = Some (J.Bool true));
  Alcotest.(check (option string)) "second echoes its op" (Some "LSTM/lstm_ew_000")
    (str_field second "op");
  let rest = function
    | J.Assoc kvs ->
      J.to_string
        (J.Assoc
           (List.filter
              (fun (k, _) -> not (List.mem k [ "id"; "cached"; "op"; "elapsed_us"; "spans" ]))
              kvs))
    | j -> J.to_string j
  in
  Alcotest.(check string) "same answer" (rest first) (rest second);
  Alcotest.(check int) "one cache file" 1 (Array.length (Sys.readdir dir));
  (* without a cache both spellings miss, on one operator: one analysis,
     and infl's vectorizer schedule is kept for the second spelling *)
  let h = Service.Serve.make_handler ~find_op () in
  let _, deltas =
    counter_deltas (fun () ->
        List.iter
          (fun op ->
            has {|"status":"ok"|} (Service.Serve.handle_line h (version_request ~op "infl")))
          [ "lstm/lstm_ew_000"; "LSTM/lstm_ew_000" ])
  in
  Alcotest.(check (list (pair string int)))
    "one operator for both spellings"
    [ ("deps.analyses", 1); ("scheduler.schedules", 1) ]
    (List.map
       (fun c -> (c, Option.value ~default:0 (List.assoc_opt c deltas)))
       [ "deps.analyses"; "scheduler.schedules" ])

(* Two inline kernels that differ only in a constant past [%g] precision
   are two cache entries: the second is a miss and emits its own literal,
   as a cold handler does. *)
let test_serve_constants_exact () =
  reset ();
  let kernel_of_json j = Result.bind (Fuzz.Case.of_json j) Fuzz.Case.to_kernel in
  let handler ?cache () =
    Service.Serve.make_handler ?cache ~kernel_of_json ~find_op:find_classic ()
  in
  let h = handler ~cache:(Service.Cache.open_ (fresh_dir ())) () in
  let request c =
    J.to_string
      (J.Assoc
         [ ( "kernel",
             Fuzz.Case.to_json
               { Fuzz.Case.name = "k";
                 tensors = [ ("A", [ 4 ]) ];
                 stmts =
                   [ { Fuzz.Case.sname = "S"; iters = [ ("i", 4) ]; write = at_i "A";
                       rhs = Fuzz.Case.Const c } ] } );
           ("version", J.String "cpu") ])
  in
  let source reply =
    match str_field reply "source" with Some s -> s | None -> Alcotest.fail "no source"
  in
  let first = fields (Service.Serve.handle_line h (request 0.1)) in
  let second = fields (Service.Serve.handle_line h (request 0.1000001)) in
  let cold = fields (Service.Serve.handle_line (handler ()) (request 0.1000001)) in
  Alcotest.(check bool) "second misses" true (J.member "cached" second = Some (J.Bool false));
  Alcotest.(check bool) "other digest" false
    (str_field first "digest" = str_field second "digest");
  Alcotest.(check string) "the second's own C" (source cold) (source second);
  has "0x1.9999b4718c345p-4" (source second);
  has "0x1.999999999999ap-4" (source first)

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

(* the zoo under its serve names *)
let zoo_ops () =
  List.concat_map
    (fun (n : Ops.Networks.t) ->
      List.map
        (fun (op, k) -> (String.lowercase_ascii n.Ops.Networks.name ^ "/" ^ op, k))
        (Lazy.force n.Ops.Networks.ops))
    Ops.Networks.all

(* Every zoo operator, StencilZoo included, under its serve name and three
   versions through one handler with a cache: every reply is ok, a second
   pass over the same lines is all cache hits with the first pass's
   answers, and the request histogram counts both passes. *)
let test_serve_zoo () =
  reset ();
  let cache = Service.Cache.open_ (fresh_dir ()) in
  let ops = zoo_ops () in
  let h = Service.Serve.make_handler ~cache ~find_op:(fun n -> List.assoc_opt n ops) () in
  let lines =
    List.concat_map
      (fun (op, _) -> List.map (version_request ~op) [ "isl"; "novec"; "infl" ])
      ops
  in
  let pass () = List.map (fun line -> fields (Service.Serve.handle_line h line)) lines in
  let first = pass () in
  let second = pass () in
  let answer = function
    | J.Assoc kvs ->
      J.to_string
        (J.Assoc
           (List.filter
              (fun (k, _) -> not (List.mem k [ "id"; "cached"; "elapsed_us"; "spans" ]))
              kvs))
    | j -> J.to_string j
  in
  List.iteri
    (fun i (line, (a, b)) ->
      Alcotest.(check (option string)) (line ^ " is ok") (Some "ok") (str_field a "status");
      if J.member "cached" b <> Some (J.Bool true) then
        Alcotest.failf "%s: the second pass missed" line;
      if answer a <> answer b then
        Alcotest.failf "request %d (%s): the hit differs from the miss" i line)
    (List.combine lines (List.combine first second));
  match Obs.Histogram.find "serve.request_seconds" with
  | Some hist ->
    Alcotest.(check int) "both passes timed" (2 * List.length lines)
      hist.Obs.Histogram.count
  | None -> Alcotest.fail "serve.request_seconds not registered"

(* ------------------------------------------------------------------ *)
(* Serve: the memory tier                                               *)
(* ------------------------------------------------------------------ *)

(* a reply without the fields that differ between a miss, a disk hit and
   a memory hit of one request *)
let hit_answer reply =
  match J.of_string reply with
  | Ok (J.Assoc kvs) ->
    J.to_string
      (J.Assoc
         (List.filter
            (fun (k, _) -> not (List.mem k [ "id"; "cached"; "elapsed_us"; "spans" ]))
            kvs))
  | _ -> Alcotest.failf "not a JSON object: %s" reply

let cached reply = J.member "cached" (fields reply)

(* Every zoo op under all five versions: handler A misses each one, a
   fresh handler B on the same directory hits each from disk, and A then
   hits each from memory; the three replies agree apart from id, cached
   and timing.  With every entry file deleted, A still answers each
   repeat from memory, and each one counts as a memory hit. *)
let test_serve_memory_exact () =
  reset ();
  let dir = fresh_dir () in
  let ops = zoo_ops () in
  let find_op n = List.assoc_opt n ops in
  let handler () = Service.Serve.make_handler ~cache:(Service.Cache.open_ dir) ~find_op () in
  let a = handler () in
  let lines =
    List.concat_map (fun (op, _) -> List.map (version_request ~op) versions) ops
  in
  let n = List.length lines in
  let pass h = List.map (Service.Serve.handle_line h) lines in
  let memory_hits () = counter "service.cache_memory_hits" in
  let misses = pass a in
  Alcotest.(check int) "misses are not memory hits" 0 (memory_hits ());
  let disk = pass (handler ()) in
  Alcotest.(check int) "a fresh handler hits from disk" 0 (memory_hits ());
  let memory = pass a in
  Alcotest.(check int) "the first handler hits from memory" n (memory_hits ());
  Alcotest.(check int) "memory hits are cache hits" (2 * n) (counter "service.cache_hits");
  List.iteri
    (fun i (line, (miss, (d, m))) ->
      if cached miss <> Some (J.Bool false) then Alcotest.failf "%s: the first pass hit" line;
      if cached d <> Some (J.Bool true) || cached m <> Some (J.Bool true) then
        Alcotest.failf "%s: a repeat missed" line;
      let expected = hit_answer miss in
      if hit_answer d <> expected then
        Alcotest.failf "request %d (%s): the disk hit differs from the miss" i line;
      if hit_answer m <> expected then
        Alcotest.failf "request %d (%s): the memory hit differs from the miss" i line)
    (List.combine lines (List.combine misses (List.combine disk memory)));
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  let again = pass a in
  List.iter2
    (fun line reply ->
      if cached reply <> Some (J.Bool true) then
        Alcotest.failf "%s: no memory hit without its file" line)
    lines again;
  Alcotest.(check int) "every repeat counted" (2 * n) (memory_hits ());
  Alcotest.(check int) "no file read" 0 (Array.length (Sys.readdir dir))

(* Without a cache nothing is remembered: a repeated request compiles
   again and says so. *)
let test_serve_uncached_repeats () =
  reset ();
  let h = Service.Serve.make_handler ~find_op:find_classic () in
  List.iter
    (fun _ ->
      let r = Service.Serve.handle_line h {|{"op":"fig2","version":"isl"}|} in
      has {|"status":"ok"|} r;
      has {|"cached":false|} r)
    [ 1; 2; 3 ];
  Alcotest.(check int) "no memory hits" 0 (counter "service.cache_memory_hits");
  Alcotest.(check int) "no cache hits" 0 (counter "service.cache_hits")

(* Inline kernels keep the disk path: a repeat is a disk hit, never a
   memory hit. *)
let test_serve_inline_disk_only () =
  reset ();
  let kernel_of_json j = Result.bind (Fuzz.Case.of_json j) Fuzz.Case.to_kernel in
  let h =
    Service.Serve.make_handler ~cache:(Service.Cache.open_ (fresh_dir ())) ~kernel_of_json
      ~find_op:find_classic ()
  in
  let line =
    inline_request ~tensors:[ ("A", [ 4 ]); ("B", [ 4 ]) ] ~extent:4 ~write:(at_i "B")
      ~rhs:(Fuzz.Case.Load (at_i "A"))
  in
  let replies = List.map (fun _ -> Service.Serve.handle_line h line) [ 1; 2; 3 ] in
  Alcotest.(check (list (option bool))) "miss, then disk hits"
    [ Some false; Some true; Some true ]
    (List.map
       (fun r -> match cached r with Some (J.Bool b) -> Some b | _ -> None)
       replies);
  Alcotest.(check int) "disk hits" 2 (counter "service.cache_hits");
  Alcotest.(check int) "no memory hits" 0 (counter "service.cache_memory_hits")

(* A store that fails (here: the cache directory removed between two
   misses) leaves the reply standing: ok and uncached, counted, and not
   remembered, so its repeat compiles again.  Replies the disk held
   before are still answered from memory. *)
let test_serve_store_failure () =
  reset ();
  let dir = fresh_dir () in
  let h = Service.Serve.make_handler ~cache:(Service.Cache.open_ dir) ~find_op:find_classic () in
  let reply line =
    match Service.Serve.handle_line h line with
    | exception e -> Alcotest.failf "%s raised %s" line (Printexc.to_string e)
    | r -> r
  in
  let kept = {|{"op":"fig2","id":"a"}|} and lost = {|{"op":"transpose_add","id":"b"}|} in
  has {|"cached":false|} (reply kept);
  remove_dir dir;
  let cold = Service.Serve.handle_line (Service.Serve.make_handler ~find_op:find_classic ()) lost in
  List.iter
    (fun _ ->
      let r = reply lost in
      has {|"status":"ok"|} r;
      has {|"cached":false|} r;
      Alcotest.(check string) "the cold reply" (answer cold) (answer r))
    [ 1; 2 ];
  Alcotest.(check int) "failed stores counted" 2 (counter "service.cache_store_failures");
  has {|"cached":true|} (reply kept);
  Alcotest.(check int) "only the stored reply is a memory hit" 1
    (counter "service.cache_memory_hits");
  Alcotest.(check bool) "no directory made" false (Sys.file_exists dir)

(* ------------------------------------------------------------------ *)
(* Serve: one compile per distinct kernel                               *)
(* ------------------------------------------------------------------ *)

(* Every zoo operator and classic under the five versions on V100 and
   A100, through one handler with a cache: each reply is the one a fresh
   handler gives for that request alone, and the handler analysed each
   distinct kernel once, however many names it has.  Only a request whose
   kernel name and digest an earlier request had (the classic stencil2d
   is a zoo kernel) is a cache hit.  An operator is shared only between
   kernels of one digest. *)
let test_serve_equal_kernels_share () =
  reset ();
  let ops = zoo_ops () @ List.map (fun (n, mk) -> (n, mk ())) Ops.Classics.all in
  let find_op n = List.assoc_opt n ops in
  let requests =
    List.concat_map
      (fun (op, k) ->
        List.concat_map
          (fun v ->
            List.map
              (fun m ->
                ( (k.Ir.Kernel.name, Ir.Kernel.digest k, v, m),
                  J.to_string
                    (J.Assoc
                       [ ("op", J.String op); ("version", J.String v); ("machine", J.String m) ])
                ))
              [ "v100"; "a100" ])
          versions)
      ops
  in
  let uncached reply =
    match J.of_string reply with
    | Ok (J.Assoc kvs) -> answer (J.to_string (J.Assoc (List.remove_assoc "cached" kvs)))
    | _ -> Alcotest.failf "not a JSON object: %s" reply
  in
  let alone =
    List.map
      (fun (_, line) ->
        uncached (Service.Serve.handle_line (Service.Serve.make_handler ~find_op ()) line))
      requests
  in
  let h = Service.Serve.make_handler ~cache:(Service.Cache.open_ (fresh_dir ())) ~find_op () in
  let shared, deltas =
    counter_deltas (fun () ->
        List.map (fun (_, line) -> Service.Serve.handle_line h line) requests)
  in
  let seen = Hashtbl.create 2048 in
  List.iter2
    (fun (key, line) (a, reply) ->
      Alcotest.(check string) (line ^ " = alone") a (uncached reply);
      if cached reply <> Some (J.Bool (Hashtbl.mem seen key)) then
        Alcotest.failf "%s: cached is not %b" line (Hashtbl.mem seen key);
      Hashtbl.replace seen key ())
    requests (List.combine alone shared);
  let digests = List.sort_uniq String.compare (List.map (fun (_, k) -> Ir.Kernel.digest k) ops) in
  Alcotest.(check bool) "names share digests" true (List.length digests < List.length ops);
  let n = List.length digests and delta c = Option.value ~default:0 (List.assoc_opt c deltas) in
  Alcotest.(check (list (pair string int)))
    "one analysis, three schedules and four lowerings per digest"
    [ ("deps.analyses", n); ("scheduler.schedules", 3 * n); ("codegen.lowerings", 4 * n) ]
    (List.map (fun c -> (c, delta c)) [ "deps.analyses"; "scheduler.schedules"; "codegen.lowerings" ]);
  let op = P.operator (classic "fig2") in
  match P.share op (classic "transpose_add") with
  | _ -> Alcotest.fail "an operator shared across digests"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "service"
    [ ( "key",
        [ Alcotest.test_case "stability" `Quick test_key_stability;
          Alcotest.test_case "eval key pinned" `Quick test_eval_key_pinned;
          Alcotest.test_case "kernel digest" `Quick test_kernel_digest;
          Alcotest.test_case "digest partition" `Quick test_digest_partition;
          Alcotest.test_case "digests pinned" `Quick test_digests_pinned
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
          Alcotest.test_case "eviction" `Quick test_cache_eviction;
          Alcotest.test_case "stores below the cap do not scan" `Quick
            test_cache_no_scan_below_cap;
          Alcotest.test_case "a rewrite is counted once" `Quick
            test_cache_rewrite_counted_once;
          Alcotest.test_case "full cache amortizes" `Quick test_cache_full_amortizes;
          Alcotest.test_case "another handle's writes" `Quick test_cache_other_handle;
          Alcotest.test_case "damaged files" `Quick test_cache_damaged_files
        ] );
      ( "batch",
        [ Alcotest.test_case "cache roundtrip" `Quick test_batch_cache_roundtrip;
          Alcotest.test_case "hits carry no obs" `Quick test_batch_hits_carry_no_obs;
          Alcotest.test_case "old payload decodes" `Quick test_batch_old_payload_decodes;
          Alcotest.test_case "corrupt entry" `Quick test_batch_corrupt_entry_recomputes;
          Alcotest.test_case "a failed store keeps the row" `Quick test_batch_store_failure;
          Alcotest.test_case "jobs determinism" `Quick test_suite_determinism_across_jobs
        ] );
      ( "serve",
        [ Alcotest.test_case "scripted requests" `Quick test_serve_requests;
          Alcotest.test_case "input guards" `Quick test_serve_guards;
          Alcotest.test_case "verbs and ids" `Quick test_serve_verbs_and_ids;
          Alcotest.test_case "unknown fields are ignored" `Quick test_serve_unknown_fields;
          Alcotest.test_case "backend axis" `Quick test_serve_backend_axis;
          Alcotest.test_case "serve keys" `Quick test_serve_keys;
          Alcotest.test_case "inline kernels not memoized" `Quick
            test_serve_inline_not_memoized;
          Alcotest.test_case "operator reuse is exact" `Quick test_serve_operator_reuse;
          Alcotest.test_case "a new kernel is a new operator" `Quick
            test_serve_new_kernel_no_reuse;
          Alcotest.test_case "a failed run is not kept" `Quick test_serve_failure_not_retained;
          Alcotest.test_case "kept stats are copies" `Quick test_stats_copied;
          Alcotest.test_case "bad extent" `Quick test_serve_bad_extent;
          Alcotest.test_case "damaged requests" `Quick test_serve_damaged_requests;
          Alcotest.test_case "two spellings, one entry" `Quick test_serve_two_spellings;
          Alcotest.test_case "constants past %g precision" `Quick test_serve_constants_exact;
          Alcotest.test_case "huge kernels" `Quick test_serve_huge_kernels;
          Alcotest.test_case "loop answers blank lines" `Quick
            test_serve_loop_blank_lines;
          Alcotest.test_case "every zoo op, missed then hit" `Quick test_serve_zoo;
          Alcotest.test_case "memory hits equal misses and disk hits" `Quick
            test_serve_memory_exact;
          Alcotest.test_case "no memory without a cache" `Quick test_serve_uncached_repeats;
          Alcotest.test_case "inline kernels keep the disk path" `Quick
            test_serve_inline_disk_only;
          Alcotest.test_case "a failed store is answered uncached" `Quick
            test_serve_store_failure;
          Alcotest.test_case "equal kernels share one compile" `Quick
            test_serve_equal_kernels_share
        ] )
    ]
