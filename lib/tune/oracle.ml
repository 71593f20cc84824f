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

let key ?(strategy = Scheduling.Scheduler.default_config.strategy) ?(tile = false)
    ?cpu_runner ~machine kernel candidate =
  (* measured (cpu-runner) evaluations live under their own version and
     carry the toolchain digest: a simulated cache entry must never
     answer for a measured one, or vice versa *)
  let toolchain =
    match cpu_runner with
    | None -> []
    | Some r ->
      [ ("toolchain", (Codegen_cpu.Runner.toolchain r).Codegen_cpu.Toolchain.digest) ]
  in
  Service.Key.make
    ~flags:
      ([ ("entry", "tune"); ("candidate", Candidate.digest candidate);
         ("strategy", Scheduling.Scheduler.strategy_name strategy)
       ]
      @ toolchain)
    ~kernel ~machine
    ~version:
      ("tune-"
      ^ match cpu_runner with Some _ -> P.name P.Cpu | None -> P.name (version ~tile))
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

(* A host runner or toolchain failure says nothing about the candidate:
   it is reported as a failed evaluation but never cached. *)
exception Runner_failed of Codegen_cpu.Runner.error

type outcome = Measured of measurement | Failed | Transient

let evaluate ?strategy ?(tile = false) ?cpu_runner ~machine kernel (c : Candidate.t) =
  Obs.Span.with_ "tune.eval" @@ fun () ->
  Obs.Counters.incr c_evals;
  let version = version ~tile in
  match
    (* In tile mode the tree comes from the tiling client, so the
       candidate's vectorizer weights are inert; its [order] still
       selects among the tile-shape branches. *)
    let tuning = { P.weights = c.Candidate.weights; order = c.Candidate.order } in
    let influence = P.tree ~tuning version kernel in
    let sched, stats, _ = P.schedule ?influence ?strategy kernel in
    let compiled = P.lower version sched kernel in
    let time_us, cycles =
      match cpu_runner with
      | None ->
        let report = P.simulate ~machine compiled in
        (Gpusim.Sim.time_us report, Gpusim.Sim.cycles ~machine report)
      | Some runner -> (
        (* measured mode: execute the emitted C on the host and score the
           candidate by wall clock instead of the simulator's model *)
        let m =
          if Gpusim.Machine.is_cpu machine then machine
          else Codegen_cpu.Runner.native_profile runner
        in
        let ok = function Ok x -> x | Error e -> raise (Runner_failed e) in
        let built =
          ok (Codegen_cpu.Runner.build_source runner ~machine:m (P.emit_c ~machine:m compiled))
        in
        let best_s, _ =
          ok (P.execute ~check:false runner built (Ir.Kernel.instantiate kernel))
        in
        (best_s *. 1e6, best_s *. m.Gpusim.Machine.clock_hz))
    in
    { time_us;
      cycles;
      vec = Codegen.Ast.has_vector_loop compiled.Codegen.Compile.ast;
      tiled = Codegen.Tiling.applied compiled.Codegen.Compile.ast;
      influenced = not stats.Scheduling.Scheduler.influence_abandoned
    }
  with
  | m -> Measured m
  | exception ((Out_of_memory | Stack_overflow | Sys.Break) as e) -> raise e
  | exception Runner_failed _ ->
    Obs.Counters.incr c_failures;
    Transient
  | exception _ ->
    Obs.Counters.incr c_failures;
    Failed

let compute ?strategy ?tile ?cpu_runner ~machine kernel c =
  match evaluate ?strategy ?tile ?cpu_runner ~machine kernel c with
  | Measured m -> Some m
  | Failed | Transient -> None

let store cache k m = Service.Cache.store cache k (measurement_to_json m)

let measure ?cache ?strategy ?tile ?cpu_runner ~machine kernel candidate =
  let k = key ?strategy ?tile ?cpu_runner ~machine kernel candidate in
  match Option.bind cache (fun c -> find c k) with
  | Some m -> m
  | None -> (
    let store m = Option.iter (fun c -> store c k m) cache in
    match evaluate ?strategy ?tile ?cpu_runner ~machine kernel candidate with
    | Measured m ->
      store (Some m);
      Some m
    | Failed ->
      store None;
      None
    | Transient -> None)
