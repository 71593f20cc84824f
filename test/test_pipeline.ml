(* Cross-entry-point differential test: the same (operator, version,
   machine) must give the same schedule, code and time through every entry
   point that compiles it — Table II evaluation (Harness.Eval), the compile
   service (Service.Serve), the tuning oracle (Tune.Oracle) and the
   differential fuzzer (Fuzz.Check).  All of them run the Harness.Pipeline
   stages; this test fails as soon as one of them re-wires the sequence
   differently. *)

module P = Harness.Pipeline
module E = Harness.Eval
module J = Obs.Json

let serve_versions = [ P.Isl; P.Novec; P.Infl; P.Tiled ]

let eval_us (r : E.op_result) = function
  | P.Isl -> r.E.isl_us
  | P.Novec -> r.E.novec_us
  | P.Infl -> r.E.infl_us
  | P.Tiled -> r.E.tiled_us
  | P.Cpu -> invalid_arg "eval_us: cpu is not simulated"

let handler ops =
  Service.Serve.make_handler ~find_op:(fun name -> List.assoc_opt name ops) ()

(* One serve reply for (op, version), as its JSON fields. *)
let serve h ~op version =
  let line =
    J.to_string (J.Assoc [ ("op", J.String op); ("version", J.String (P.name version)) ])
  in
  match J.of_string (Service.Serve.handle_line h line) with
  | Error e -> Alcotest.failf "%s %s: unparseable reply: %s" op (P.name version) e
  | Ok reply -> (
    match J.member "status" reply with
    | Some (J.String "ok") -> reply
    | _ -> Alcotest.failf "%s %s: %s" op (P.name version) (J.to_string reply))

let float_field reply k =
  match J.member k reply with
  | Some (J.Float f) -> f
  | Some (J.Int i) -> float_of_int i
  | _ -> Alcotest.failf "reply lacks %s" k

let string_field reply k =
  match J.member k reply with
  | Some (J.String s) -> s
  | _ -> Alcotest.failf "reply lacks %s" k

let same_us what ~op version expected actual =
  if not (Float.equal expected actual) then
    Alcotest.failf "%s %s: %s gives %.17g us, eval gives %.17g us" op (P.name version)
      what actual expected

(* Every zoo operator under isl/novec/infl/tiled: eval = serve = oracle.
   The infl time of 7 reduce operators (r50_reduce_011 among them) depends
   on the version table's vec_min_parallel: 11.89/12.03 us with it,
   21.19/21.42 us without. *)
let test_zoo_times () =
  let machine = Gpusim.Machine.v100 in
  let checked = ref 0 in
  List.iter
    (fun (n : Ops.Networks.t) ->
      let ops = Lazy.force n.Ops.Networks.ops in
      let h = handler ops in
      List.iter
        (fun (op, kernel) ->
          let r = E.evaluate_op ~machine ~name:op kernel in
          List.iter
            (fun v ->
              same_us "serve" ~op v (eval_us r v) (float_field (serve h ~op v) "time_us");
              incr checked)
            serve_versions;
          List.iter
            (fun (v, tile) ->
              match Tune.Oracle.compute ~tile ~machine kernel Tune.Candidate.baseline with
              | None -> Alcotest.failf "%s %s: oracle evaluation failed" op (P.name v)
              | Some m -> same_us "oracle" ~op v (eval_us r v) m.Tune.Oracle.time_us)
            [ (P.Infl, false); (P.Tiled, true) ])
        ops)
    Ops.Networks.all;
  Alcotest.(check bool) "every zoo operator checked" true (!checked >= 4 * 200)

(* The small classics: the schedule rows Fuzz.Check validates are the rows
   Pipeline.run (serve, the CLI) produces, the fuzzer's verdict is clean,
   and serve's cpu C is byte-equal to Eval.evaluate_cpu_op's. *)
let test_small_classics () =
  let ops = List.map (fun (name, mk) -> (name, mk ())) Ops.Classics.all_small in
  let h = handler ops in
  List.iter
    (fun (op, kernel) ->
      let fuzz_rows = ref [] in
      let perturb v s =
        fuzz_rows := (v, s) :: !fuzz_rows;
        s
      in
      (match Fuzz.Check.run ~perturb kernel with
       | Ok () -> ()
       | Error f -> Alcotest.failf "%s: %a" op Fuzz.Check.pp_failure f);
      (* versions with the same influence client share one schedule *)
      let pipeline_rows = Hashtbl.create 3 in
      List.iter
        (fun v ->
          let client = (P.spec v).P.client in
          if not (Hashtbl.mem pipeline_rows client) then
            Hashtbl.add pipeline_rows client (P.run v kernel).P.sched;
          match List.assoc_opt v !fuzz_rows with
          | None -> Alcotest.failf "%s %s: the fuzzer never scheduled it" op (P.name v)
          | Some s ->
            if not (E.rows_equal s (Hashtbl.find pipeline_rows client)) then
              Alcotest.failf "%s %s: fuzzer and pipeline rows differ" op (P.name v))
        P.versions;
      let r = E.evaluate_op ~name:op kernel in
      List.iter
        (fun v ->
          same_us "serve" ~op v (eval_us r v) (float_field (serve h ~op v) "time_us"))
        serve_versions;
      let _, source = E.evaluate_cpu_op ~name:op kernel in
      Alcotest.(check string)
        (op ^ ": serve cpu C = evaluate_cpu_op C")
        source
        (string_field (serve h ~op P.Cpu) "source"))
    ops

let test_version_table () =
  List.iter
    (fun v ->
      Alcotest.(check bool) (P.name v ^ " round-trips") true (P.of_name (P.name v) = Some v))
    P.versions;
  Alcotest.(check (list string))
    "names" [ "isl"; "novec"; "infl"; "tiled"; "cpu" ] (List.map P.name P.versions);
  Alcotest.(check bool) "unknown name" true (P.of_name "tvm" = None)

let () =
  Alcotest.run "pipeline"
    [ ( "entry-points",
        [ Alcotest.test_case "version table" `Quick test_version_table;
          Alcotest.test_case "small classics" `Quick test_small_classics;
          Alcotest.test_case "zoo: eval = serve = oracle" `Slow test_zoo_times
        ] )
    ]
