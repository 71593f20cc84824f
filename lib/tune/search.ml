type config = {
  beam : int;
  rounds : int;
  seed : int;
}

let default_config = { beam = 4; rounds = 3; seed = 42 }

type op_outcome = {
  op : string;
  kernel : Ir.Kernel.t;
  baseline_m : Oracle.measurement;
  best : Candidate.t;
  best_m : Oracle.measurement;
  scored : int;
}

type result = {
  outcomes : op_outcome list;
  ranking : Candidate.t list;
  config : config;
  machine : string;
}

let c_rounds = Obs.Counters.create "tune.rounds" ~doc:"beam-search rounds completed"

let c_candidates =
  Obs.Counters.create "tune.candidates" ~doc:"distinct candidates generated"

let c_dropped_ops =
  Obs.Counters.create "tune.baseline_failures"
    ~doc:"corpus operators dropped because the baseline itself failed to evaluate"

(* Ratio charged to a candidate that crashes the pipeline on an operator:
   bad enough to sink it in the ranking without drowning the geomean's
   signal from the operators it does handle. *)
let penalty_ratio = 16.0

let take n l = List.filteri (fun i _ -> i < n) l

let run ?cache ?(jobs = 1) ?oracle ?(machine = Gpusim.Machine.v100)
    ?(progress = fun _ -> ()) config ops =
  Obs.Span.with_ "tune.search" @@ fun () ->
  let beam = max 1 config.beam and rounds = max 1 config.rounds in
  let rng = Fuzz.Rng.make ~seed:config.seed ~index:0 in
  (* Generation bookkeeping: [seen] dedups by digest, [order] remembers
     each candidate's birth rank (the tie-break that lets the baseline,
     born first, win all per-op ties). *)
  let seen : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let born = ref [] in
  let add c =
    let d = Candidate.digest c in
    if Hashtbl.mem seen d then false
    else begin
      Hashtbl.add seen d (Hashtbl.length seen);
      born := c :: !born;
      Obs.Counters.incr c_candidates;
      true
    end
  in
  ignore (add Candidate.baseline);
  let population = ref [ Candidate.baseline ] in
  let grow target parents =
    (* Breed until [target] fresh candidates exist (bounded retries:
       mutation may reproduce an already-seen digest). *)
    let fresh = ref [] and attempts = ref 0 in
    while List.length !fresh < target && !attempts < 64 * target do
      incr attempts;
      let child = Candidate.mutate rng (Fuzz.Rng.pick rng parents) in
      if add child then fresh := child :: !fresh
    done;
    List.rev !fresh
  in
  population := !population @ grow ((2 * beam) - 1) !population;

  (* (operator name | candidate digest) -> measurement option *)
  let memo : (string, Oracle.measurement option) Hashtbl.t = Hashtbl.create 256 in
  let mkey op c = op ^ "|" ^ Candidate.digest c in
  let score_pairs pairs =
    match oracle with
    | Some f -> List.iter (fun (op, k, c) -> Hashtbl.replace memo (mkey op c) (f k c)) pairs
    | None ->
      (* Cache I/O on this (coordinating) domain only; workers get pure
         compute — the same discipline Service.Batch follows. *)
      let misses =
        List.filter_map
          (fun (op, k, c) ->
            let key = Oracle.key ~machine k c in
            match Option.bind cache (fun store -> Oracle.find store key) with
            | Some m ->
              Hashtbl.replace memo (mkey op c) m;
              None
            | None -> Some (op, k, c, key))
          pairs
      in
      let results =
        Service.Pool.map ~jobs (fun (_, k, c, _) -> Oracle.compute ~machine k c) misses
      in
      List.iter2
        (fun (op, _, c, key) m ->
          Option.iter (fun store -> Oracle.store store key m) cache;
          Hashtbl.replace memo (mkey op c) m)
        misses results
  in
  let baseline_time op =
    match Hashtbl.find_opt memo (mkey op Candidate.baseline) with
    | Some (Some m) when m.Oracle.time_us > 0.0 -> Some m.Oracle.time_us
    | _ -> None
  in
  let geomean_ratio c live =
    let logs =
      List.map
        (fun (op, base) ->
          match Hashtbl.find_opt memo (mkey op c) with
          | Some (Some m) -> log (Float.max (m.Oracle.time_us /. base) 1e-9)
          | _ -> log penalty_ratio)
        live
    in
    match logs with
    | [] -> 1.0
    | _ -> exp (List.fold_left ( +. ) 0.0 logs /. float_of_int (List.length logs))
  in
  let rank pop live =
    pop
    |> List.map (fun c ->
           (geomean_ratio c live, Hashtbl.find seen (Candidate.digest c), c))
    |> List.stable_sort (fun (sa, ga, _) (sb, gb, _) ->
           match Float.compare sa sb with 0 -> compare ga gb | n -> n)
    |> List.map (fun (_, _, c) -> c)
  in

  for round = 1 to rounds do
    let unscored =
      List.concat_map
        (fun (op, k) ->
          List.filter_map
            (fun c -> if Hashtbl.mem memo (mkey op c) then None else Some (op, k, c))
            !population)
        ops
    in
    score_pairs unscored;
    Obs.Counters.incr c_rounds;
    let live =
      List.filter_map (fun (op, _) -> Option.map (fun t -> (op, t)) (baseline_time op)) ops
    in
    let ranked = rank !population live in
    let best_ratio =
      match ranked with [] -> 1.0 | c :: _ -> geomean_ratio c live
    in
    progress
      (Printf.sprintf "round %d/%d: %d candidates scored on %d ops, best geomean %.4fx"
         round rounds (List.length !population) (List.length live) best_ratio);
    Obs.Trace.emitf "tune.round" (fun () ->
        [ ("round", Obs.Json.Int round);
          ("population", Obs.Json.Int (List.length !population));
          ("live_ops", Obs.Json.Int (List.length live));
          ("best_geomean_ratio", Obs.Json.Float best_ratio)
        ]);
    let survivors = take beam ranked in
    if round < rounds then population := survivors @ grow beam survivors
    else population := ranked
  done;

  let all_candidates = List.rev !born in
  let outcomes =
    List.filter_map
      (fun (op, kernel) ->
        match Hashtbl.find_opt memo (mkey op Candidate.baseline) with
        | Some (Some base) ->
          let best, best_m, scored =
            List.fold_left
              (fun (bc, bm, n) c ->
                match Hashtbl.find_opt memo (mkey op c) with
                | Some (Some m) ->
                  if m.Oracle.time_us < bm.Oracle.time_us then (c, m, n + 1)
                  else (bc, bm, n + 1)
                | Some None -> (bc, bm, n + 1)
                | None -> (bc, bm, n))
              (Candidate.baseline, base, 0) all_candidates
          in
          Some { op; kernel; baseline_m = base; best; best_m; scored }
        | _ ->
          Obs.Counters.incr c_dropped_ops;
          None)
      ops
  in
  { outcomes; ranking = !population; config; machine = machine.Gpusim.Machine.name }

let to_records r =
  let tbl : (string, Record.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (o : op_outcome) ->
      let fingerprint = Fingerprint.of_kernel o.kernel in
      let record =
        { Record.fingerprint;
          machine = r.machine;
          candidate = o.best;
          baseline_us = o.baseline_m.Oracle.time_us;
          tuned_us = o.best_m.Oracle.time_us;
          seed = r.config.seed;
          beam = r.config.beam;
          rounds = r.config.rounds;
          source_op = o.op
        }
      in
      match Hashtbl.find_opt tbl fingerprint with
      | Some prev when prev.Record.tuned_us <= record.Record.tuned_us -> ()
      | _ -> Hashtbl.replace tbl fingerprint record)
    r.outcomes;
  Hashtbl.fold (fun _ rec_ acc -> rec_ :: acc) tbl []
  |> List.sort (fun a b -> String.compare a.Record.fingerprint b.Record.fingerprint)
