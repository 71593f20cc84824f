type compiled = {
  kernel : Ir.Kernel.t;
  schedule : Scheduling.Schedule.t;
  ast : Ast.t;
  mapping : Mapping.t;
}

let c_lowerings = Obs.Counters.create "codegen.lowerings" ~doc:"schedule-to-AST lowerings"

(* Runs one backend pass inside a span and reports its wall time in the
   trace, so `--trace` shows where compile time goes per kernel. *)
let pass name kernel_name f =
  let r, dt = Obs.Span.timed (fun () -> Obs.Span.with_ ("codegen." ^ name) f) in
  Obs.Trace.emitf "codegen.pass" (fun () ->
      [ ("kernel", Obs.Json.String kernel_name);
        ("pass", Obs.Json.String name);
        ("dur_us", Obs.Json.Float (dt *. 1e6))
      ]);
  r

let lower ?(vectorize = true) ?vec_min_parallel schedule kernel =
  Obs.Span.with_ "codegen.lower" @@ fun () ->
  Obs.Counters.incr c_lowerings;
  let name = kernel.Ir.Kernel.name in
  let deps = Deps.Analysis.dependences kernel in
  let ast = pass "gen" name (fun () -> Gen.generate schedule kernel) in
  let ast = pass "marks" name (fun () -> Marks.refine schedule kernel deps ast) in
  let ast =
    if vectorize then
      pass "vectorpass" name (fun () ->
          Vectorpass.apply ?min_parallel:vec_min_parallel schedule kernel deps ast)
    else ast
  in
  (* The tile shape the tiling client injected through the influence tree
     (absent on untiled schedules, so this is a no-op for them). *)
  let ast =
    match Tiling.sizes_of_schedule schedule with
    | None -> ast
    | Some sizes ->
      pass "tiling" name (fun () -> Tiling.apply ~sizes schedule kernel deps ast)
  in
  let mapping, ast =
    pass "mapping" name (fun () ->
        let mapping = Mapping.compute ast in
        (mapping, Mapping.apply mapping ast))
  in
  { kernel; schedule; ast; mapping }
