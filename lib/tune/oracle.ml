type measurement = {
  time_us : float;
  cycles : float;
  vec : bool;
  tiled : bool;
  influenced : bool;
}

let c_evals = Obs.Counters.create "tune.evals" ~doc:"oracle evaluations computed"

let c_cache_hits =
  Obs.Counters.create "tune.eval_cache_hits" ~doc:"oracle evaluations answered from the compile cache"

let c_failures =
  Obs.Counters.create "tune.eval_failures"
    ~doc:"oracle evaluations whose pipeline raised (candidate scored as unusable)"

module P = Harness.Pipeline

let version ~tile = if tile then P.Tiled else P.Infl

let key ?(tile = false) ~machine kernel candidate =
  Service.Key.make
    ~flags:[ ("entry", "tune"); ("candidate", Candidate.digest candidate) ]
    ~kernel ~machine
    ~version:("tune-" ^ P.name (version ~tile))
    ()

module J = Obs.Json

let measurement_to_json = function
  | None -> J.Assoc [ ("failed", J.Bool true) ]
  | Some m ->
    J.Assoc
      [ ("failed", J.Bool false);
        ("time_us", J.Float m.time_us);
        ("cycles", J.Float m.cycles);
        ("vec", J.Bool m.vec);
        ("tiled", J.Bool m.tiled);
        ("influenced", J.Bool m.influenced)
      ]

let measurement_of_json j =
  match J.member "failed" j with
  | Some (J.Bool true) -> Some None
  | Some (J.Bool false) -> (
    let flt name =
      match J.member name j with
      | Some (J.Float f) -> Some f
      | Some (J.Int i) -> Some (float_of_int i)
      | _ -> None
    in
    let bool name =
      match J.member name j with Some (J.Bool b) -> Some b | _ -> None
    in
    match
      (flt "time_us", flt "cycles", bool "vec", bool "tiled", bool "influenced")
    with
    | Some time_us, Some cycles, Some vec, Some tiled, Some influenced ->
      Some (Some { time_us; cycles; vec; tiled; influenced })
    | _ -> None)
  | _ -> None

let find cache k =
  match Service.Cache.find cache k with
  | None -> None
  | Some payload -> (
    match measurement_of_json payload with
    | Some m ->
      Obs.Counters.incr c_cache_hits;
      Some m
    | None -> None)

let compute ?(tile = false) ~machine kernel (c : Candidate.t) =
  Obs.Span.with_ "tune.eval" @@ fun () ->
  Obs.Counters.incr c_evals;
  let version = version ~tile in
  match
    (* In tile mode the tree comes from the tiling client, so the
       candidate's vectorizer weights are inert; its [order] still
       selects among the tile-shape branches. *)
    let tuning = { P.weights = c.Candidate.weights; order = c.Candidate.order } in
    let deps = Deps.Analysis.dependences kernel in
    let influence = P.tree ~tuning ~deps version kernel in
    let sched, stats, _ = P.schedule ?influence ~deps kernel in
    let compiled = P.lower ~deps version sched kernel in
    let report = P.simulate ~machine compiled in
    { time_us = Gpusim.Sim.time_us report;
      cycles = Gpusim.Sim.cycles ~machine report;
      vec = Codegen.Ast.has_vector_loop compiled.Codegen.Compile.ast;
      tiled = Codegen.Tiling.applied compiled.Codegen.Compile.ast;
      influenced = not stats.Scheduling.Scheduler.influence_abandoned
    }
  with
  | m -> Some m
  | exception ((Out_of_memory | Stack_overflow | Sys.Break) as e) -> raise e
  | exception _ ->
    Obs.Counters.incr c_failures;
    None

let store cache k m = Service.Cache.store cache k (measurement_to_json m)

let measure ?cache ?tile ~machine kernel candidate =
  let k = key ?tile ~machine kernel candidate in
  match Option.bind cache (fun c -> find c k) with
  | Some m -> m
  | None ->
    let m = compute ?tile ~machine kernel candidate in
    Option.iter (fun c -> store c k m) cache;
    m
