(* One cache entry per operator holds the whole op_result (the isl, tvm,
   novec, infl and tiled columns): that is the unit Table II consumes,
   and caching at that granularity makes a warm `network` run perform
   zero scheduler ILP solves for cached operators.  Lookups and stores happen on the coordinating
   domain; only the compilation of misses is sharded across the pool. *)

type tuning = { digest : string; tuning : Harness.Eval.tuning }

let c_tuned =
  Obs.Counters.create "service.tuned_ops"
    ~doc:"suite operators evaluated under a tuning record"

let eval_key ?tuned ~machine ~name kernel =
  (* The tuning-record digest is part of the key: tuned and fixed-weight
     evaluations of the same kernel are different compile results, and a
     record update invalidates exactly the entries it affects. *)
  let flags =
    ("op", name)
    (* the column set is part of the key, so adding a version (tiled, PR 9)
       retires every pre-tiling entry instead of relying on decode failure *)
    :: ("columns", "isl,tvm,novec,infl,tiled")
    :: (match tuned with None -> [] | Some t -> [ ("tuned", t.digest) ])
  in
  Key.make ~kernel ~machine ~version:"eval" ~flags ()

type source = Hit of Harness.Eval.op_result | Miss

(* ------------------------------------------------------------------ *)
(* CPU-backend suite                                                    *)
(* ------------------------------------------------------------------ *)

let cpu_eval_key ?runner ?(check = true) ~machine ~name kernel =
  (* the toolchain digest is part of the key: emit-only results and
     executed results from different compilers must never answer for each
     other — and a compiler upgrade invalidates exactly the executed
     entries *)
  let toolchain =
    match runner with
    | None -> "none"
    | Some r -> (Codegen_cpu.Runner.toolchain r).Codegen_cpu.Toolchain.digest
  in
  Key.make ~kernel ~machine ~version:"cpu-eval"
    ~flags:[ ("op", name); ("toolchain", toolchain); ("check", if check then "1" else "0") ]
    ()

let evaluate_cpu_suite ?(machine = Gpusim.Machine.scalar_1core)
    ?(progress = fun _ -> ()) ?cache ?runner ?(check = true) ?(jobs = 1) ops =
  let sources =
    List.map
      (fun (name, kernel) ->
        match cache with
        | None -> ((name, kernel), None)
        | Some c -> (
          match Cache.find c (cpu_eval_key ?runner ~check ~machine ~name kernel) with
          | None -> ((name, kernel), None)
          | Some payload -> (
            match Harness.Eval.cpu_run_of_json payload with
            | Ok r -> ((name, kernel), Some { r with Harness.Eval.cpu_op = name })
            | Error _ -> ((name, kernel), None))))
      ops
  in
  List.iter (fun ((name, _), _) -> progress name) sources;
  let misses = List.filter_map (function (op, None) -> Some op | _ -> None) sources in
  let computed =
    Pool.map ~jobs
      (fun (name, kernel) ->
        fst (Harness.Eval.evaluate_cpu_op ~machine ?runner ~check ~name kernel))
      misses
  in
  (match cache with
   | None -> ()
   | Some c ->
     List.iter2
       (fun (name, kernel) r ->
         Cache.store c
           (cpu_eval_key ?runner ~check ~machine ~name kernel)
           (Harness.Eval.cpu_run_to_json r))
       misses computed);
  let remaining = ref computed in
  List.map
    (fun (_, source) ->
      match source with
      | Some r -> r
      | None -> (
        match !remaining with
        | r :: rest ->
          remaining := rest;
          r
        | [] -> assert false))
    sources

let evaluate_suite ?(machine = Gpusim.Machine.v100) ?(progress = fun _ -> ()) ?cache
    ?tuned ?(jobs = 1) ops =
  let lookup name kernel =
    match tuned with
    | None -> None
    | Some f ->
      let t = f name kernel in
      if Option.is_some t then Obs.Counters.incr c_tuned;
      t
  in
  let sources =
    List.map
      (fun (name, kernel) ->
        let tuned = lookup name kernel in
        match cache with
        | None -> ((name, kernel, tuned), Miss)
        | Some c -> (
          match Cache.find c (eval_key ?tuned ~machine ~name kernel) with
          | None -> ((name, kernel, tuned), Miss)
          | Some payload -> (
            match Harness.Eval.result_of_json payload with
            | Ok r ->
              (* belt and braces: key collisions across identically-shaped
                 kernels must still report under the requested name *)
              ((name, kernel, tuned), Hit { r with Harness.Eval.op_name = name })
            | Error _ -> ((name, kernel, tuned), Miss))))
      ops
  in
  (* announce all work up front, in suite order — worker domains must not
     interleave writes on the caller's progress channel *)
  List.iter (fun ((name, _, _), _) -> progress name) sources;
  let misses = List.filter_map (function (op, Miss) -> Some op | _ -> None) sources in
  let computed =
    Pool.map ~jobs
      (fun (name, kernel, tuned) ->
        let tuning = Option.map (fun t -> t.tuning) tuned in
        Harness.Eval.evaluate_op ~machine ?tuning ~name kernel)
      misses
  in
  (match cache with
   | None -> ()
   | Some c ->
     List.iter2
       (fun (name, kernel, tuned) r ->
         Cache.store c (eval_key ?tuned ~machine ~name kernel)
           (Harness.Eval.result_to_json r))
       misses computed);
  let remaining = ref computed in
  List.map
    (fun (_, source) ->
      match source with
      | Hit r -> r
      | Miss -> (
        match !remaining with
        | r :: rest ->
          remaining := rest;
          r
        | [] -> assert false))
    sources
