module P = Harness.Pipeline

type stage = Convert | Schedule | Legality | Lower | Structure | Emit | Semantics | Simulate

let stage_name = function
  | Convert -> "convert"
  | Schedule -> "schedule"
  | Legality -> "legality"
  | Lower -> "lower"
  | Structure -> "structure"
  | Emit -> "emit"
  | Semantics -> "semantics"
  | Simulate -> "simulate"

let stage_of_name = function
  | "convert" -> Some Convert
  | "schedule" -> Some Schedule
  | "legality" -> Some Legality
  | "lower" -> Some Lower
  | "structure" -> Some Structure
  | "emit" -> Some Emit
  | "semantics" -> Some Semantics
  | "simulate" -> Some Simulate
  | _ -> None

type failure = { version : P.version; stage : stage; message : string }

let pp_failure ppf f =
  Format.fprintf ppf "[%s/%s] %s" (P.name f.version) (stage_name f.stage) f.message

(* ------------------------------------------------------------------ *)
(* structural well-formedness of the emitted AST                        *)
(* ------------------------------------------------------------------ *)

let rec contains_for = function
  | Codegen.Ast.For _ -> true
  | Codegen.Ast.Stmts l -> List.exists contains_for l
  | Codegen.Ast.If (_, b) -> contains_for b
  | Codegen.Ast.Exec _ | Codegen.Ast.VecExec _ -> false

let well_formed (c : Codegen.Compile.compiled) =
  let open Codegen in
  let m = c.Compile.mapping in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let block_mapped = List.map fst m.Mapping.block_dims in
  let thread_mapped = List.map fst m.Mapping.thread_dims in
  let rec go ~in_strip = function
    | Ast.Stmts l -> List.iter (go ~in_strip) l
    | Ast.If (_, b) -> go ~in_strip b
    | Ast.Exec _ -> ()
    | Ast.VecExec (e, w) ->
      if w <> 2 && w <> 4 then err "VecExec(%s) width %d not in {2,4}" e.Ast.stmt w;
      if not in_strip then err "VecExec(%s) outside a vector strip" e.Ast.stmt
    | Ast.For l ->
      let strip = match l.Ast.kind with Ast.Vector _ -> true | Ast.Plain | Ast.Tile _ -> false in
      (match l.Ast.kind with
       | Ast.Vector w ->
         if w <> 2 && w <> 4 then err "vector width %d of %s not in {2,4}" w l.Ast.var;
         if contains_for l.Ast.body then err "loop nest under vectorized loop %s" l.Ast.var
       | Ast.Plain | Ast.Tile _ -> ());
      (match l.Ast.mark with
       | Ast.Block a -> if a < 0 || a > 2 then err "block axis %d outside x/y/z" a
       | Ast.Thread a -> if a < 0 || a > 2 then err "thread axis %d outside x/y/z" a
       | Ast.BlockThread (a, b) ->
         if a < 0 || a > 2 || b < 0 || b > 2 then err "strip axes (%d,%d) outside x/y/z" a b
       | Ast.Seq_mark | Ast.Parallel ->
         (* an unmapped strip's dimension must not be mapped elsewhere *)
         if strip && List.mem l.Ast.dim block_mapped then
           err "vectorized dim %d (%s) is also block-mapped" l.Ast.dim l.Ast.var;
         if strip && List.mem l.Ast.dim thread_mapped then
           err "vectorized dim %d (%s) is also thread-mapped" l.Ast.dim l.Ast.var);
      go ~in_strip:(in_strip || strip) l.Ast.body
  in
  go ~in_strip:false c.Compile.ast;
  if Mapping.block_threads m > 1024 then
    err "thread-extent product %d exceeds the 1024 budget" (Mapping.block_threads m);
  match List.rev !errs with
  | [] -> Ok ()
  | es -> Error (String.concat "; " es)

(* ------------------------------------------------------------------ *)
(* the differential driver                                              *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let guard version stage f =
  try f ()
  with e -> Error { version; stage; message = Printexc.to_string e }

let has_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let mismatch ~what version = function
  | Ok () -> Ok ()
  | Error diff ->
    Error
      { version; stage = Semantics;
        message = Printf.sprintf "%s (max abs diff %g)" what diff
      }

(* A version's tree, schedule, perturbation and lowering run inside the
   case's solver-memo [scope]; every check runs outside it. *)
let check_version ?(perturb = fun _ s -> s) ?max_tile_size ?tile_fault ~scope k deps version =
  let compile f = Polyhedra.Solver_memo.within scope f in
  let* sched =
    guard version Schedule (fun () ->
        compile (fun () ->
            let influence = P.tree ?max_tile_size version k in
            let s, _ = P.schedule ?influence k in
            Ok (perturb version s)))
  in
  let* () =
    guard version Legality (fun () ->
        match Scheduling.Legality.check sched k deps with
        | Ok () -> Ok ()
        | Error m -> Error { version; stage = Legality; message = m })
  in
  let* c, refused =
    guard version Lower (fun () ->
        (* [tile_fault] only reaches the version that tiles, so a broken
           tiler shows up as a tiled-version failure, not an isl one.  The
           fuzzer's kernels are tiny, so the vector pass runs on every
           parallel loop (threshold 0) instead of the table's 2048. *)
        let tile_fault = if version = P.Tiled then tile_fault else None in
        let refused0 = Obs.Counters.find "tiling.chains_refused" in
        let c = compile (fun () -> P.lower ~vec_min_parallel:0 ?tile_fault version sched k) in
        Ok (c, Obs.Counters.find "tiling.chains_refused" - refused0))
  in
  let* () =
    match well_formed c with
    | Error m -> Error { version; stage = Structure; message = m }
    (* only a schedule with the tiling client's annotation reaches the
       tiling pass here, and the client proposes permutable bands only *)
    | Ok () when refused > 0 ->
      let message = Printf.sprintf "the tiling pass refused %d annotated chain(s)" refused in
      Error { version; stage = Structure; message }
    | Ok () -> Ok ()
  in
  let* () =
    guard version Semantics (fun () ->
        mismatch ~what:"bit-for-bit mismatch" version (P.interpret k c))
  in
  let* () =
    guard version Simulate (fun () ->
        let t = (P.simulate c).Gpusim.Sim.time_s in
        if Float.is_finite t && t > 0.0 then Ok ()
        else
          Error
            { version; stage = Simulate;
              message = Printf.sprintf "simulated time %g s is not finite and positive" t
            })
  in
  Ok c

(* The C backend's checks on the infl lowering: the emitted C must carry
   the kernel entry symbol and, with [cpu_exec], compile on the host
   toolchain, execute, and match {!Interp.run_original} bit-for-bit — the
   executed twin of the AST-interpretation check.  Emit-only by default
   (toolchain-independent, shrink-probe cheap). *)
let check_c ?cpu_exec k c =
  let version = P.Infl in
  let machine =
    match cpu_exec with
    | Some runner -> Codegen_cpu.Runner.native_profile runner
    | None -> Gpusim.Machine.avx2_8core
  in
  let* src =
    guard version Emit (fun () ->
        let src = P.emit_c ~machine c in
        if not (has_substring src Codegen_cpu.Cemit.entry_symbol) then
          Error { version; stage = Emit; message = "emitted C lacks the kernel entry symbol" }
        else Ok src)
  in
  match cpu_exec with
  | None -> Ok ()
  | Some runner ->
    guard version Semantics (fun () ->
        let runner_error e =
          Error { version; stage = Semantics; message = Codegen_cpu.Runner.error_message e }
        in
        match Codegen_cpu.Runner.build_source runner ~machine src with
        | Error e -> runner_error e
        | Ok built -> (
          match P.execute ~reps:1 runner built k with
          | Error e -> runner_error e
          | Ok (_, checked) ->
            mismatch ~what:"executed C differs bit-for-bit" version (Option.get checked)))

(* The C checks run last: they subsume nothing, so an AST-level defect is
   always attributed to the version that first exposes it.  The versions
   compile in one solver-memo scope, entered around each compile only, so
   that they share one analysis and their solver work (novec and infl
   schedule the same vectorizer tree) while no memo answer is the
   evidence for a check. *)
let run ?perturb ?max_tile_size ?tile_fault ?cpu_exec k =
  let scope = Polyhedra.Solver_memo.fresh () in
  let* deps =
    guard P.Isl Schedule (fun () ->
        Ok (Polyhedra.Solver_memo.within scope (fun () -> Deps.Analysis.dependences k)))
  in
  let* lowered =
    List.fold_left
      (fun acc v ->
        let* lowered = acc in
        let* c = check_version ?perturb ?max_tile_size ?tile_fault ~scope k deps v in
        Ok ((v, c) :: lowered))
      (Ok []) P.versions
  in
  check_c ?cpu_exec k (List.assoc P.Infl lowered)

let run_case ?perturb ?max_tile_size ?tile_fault ?cpu_exec case =
  match Case.to_kernel case with
  | Error m -> Error { version = P.Isl; stage = Convert; message = m }
  | Ok k -> run ?perturb ?max_tile_size ?tile_fault ?cpu_exec k
