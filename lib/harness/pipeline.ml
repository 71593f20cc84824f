type version = Isl | Novec | Infl | Tiled

type client = No_influence | Vectorizer | Tiling

type spec = {
  name : string;
  client : client;
  vector_pass : int option;
}

(* The version table.  The vectorizing version refuses vector rewrites
   that would leave fewer than 2048 parallel iterations to map on threads. *)
let spec = function
  | Isl -> { name = "isl"; client = No_influence; vector_pass = None }
  | Novec -> { name = "novec"; client = Vectorizer; vector_pass = None }
  | Infl -> { name = "infl"; client = Vectorizer; vector_pass = Some 2048 }
  | Tiled -> { name = "tiled"; client = Tiling; vector_pass = None }

let versions = [ Isl; Novec; Infl; Tiled ]
let name v = (spec v).name
let of_name s = List.find_opt (fun v -> name v = s) versions

(* "cpu" is not a version: it names infl emitted as C, on the requested
   machine when that is a CPU profile and on the portable scalar one
   otherwise. *)
let cpu_name = "cpu"
let names = List.map name versions @ [ cpu_name ]

let cpu_machine m = if Gpusim.Machine.is_cpu m then m else Gpusim.Machine.scalar_1core

let resolve s ~machine =
  if s = cpu_name then Some (Infl, cpu_machine machine)
  else Option.map (fun v -> (v, machine)) (of_name s)

(* ------------------------------------------------------------------ *)
(* stages                                                               *)
(* ------------------------------------------------------------------ *)

let tree version kernel =
  match (spec version).client with
  | No_influence -> None
  | Vectorizer -> Some (Vectorizer.Treegen.influence_for kernel)
  | Tiling -> Some (Scheduling.Tiling.influence_for kernel)

let schedule ?influence kernel = Scheduling.Scheduler.schedule ?influence kernel

let lower ?vec_min_parallel version sched kernel =
  let pass = (spec version).vector_pass in
  let vec_min_parallel = if vec_min_parallel = None then pass else vec_min_parallel in
  Codegen.Compile.lower ~vectorize:(pass <> None) ?vec_min_parallel sched kernel

let simulate ?machine compiled = Gpusim.Sim.run ?machine compiled

let emit_c ~machine compiled = Codegen_cpu.Cemit.emit ~machine compiled

let memory_to_buffers (k : Ir.Kernel.t) mem =
  Array.of_list
    (List.map
       (fun (t : Ir.Tensor.t) -> Array.copy (Hashtbl.find mem t.Ir.Tensor.name))
       k.Ir.Kernel.tensors)

let buffers_to_memory (k : Ir.Kernel.t) bufs =
  let mem = Hashtbl.create 8 in
  List.iteri
    (fun i (t : Ir.Tensor.t) -> Hashtbl.replace mem t.Ir.Tensor.name bufs.(i))
    k.Ir.Kernel.tensors;
  mem

let verdict reference actual =
  if Interp.equal reference actual then Ok ()
  else Error (Interp.max_abs_diff reference actual)

let interpret kernel (compiled : Codegen.Compile.compiled) =
  let reference = Interp.randomize kernel in
  let actual = Interp.copy reference in
  Interp.run_original kernel reference;
  Interp.run_ast kernel compiled.Codegen.Compile.ast actual;
  verdict reference actual

let execute ?reps ?seed ?(check = true) runner built kernel =
  let mem = Interp.randomize ?seed kernel in
  let inputs = memory_to_buffers kernel mem in
  match Codegen_cpu.Runner.execute ?reps runner built ~inputs with
  | Error e -> Error e
  | Ok (outputs, best_s) ->
    (* the runner got copies, so [mem] still holds the inputs *)
    let checked =
      if not check then None
      else
        Obs.Span.with_ "cpu.check" @@ fun () ->
        Interp.run_original kernel mem;
        Some (verdict mem (buffers_to_memory kernel outputs))
    in
    Ok (best_s, checked)

(* ------------------------------------------------------------------ *)
(* the composed pipeline                                                *)
(* ------------------------------------------------------------------ *)

type backend_output = Simulated of Gpusim.Sim.report | Emitted of string

type output = {
  sched : Scheduling.Schedule.t;
  stats : Scheduling.Scheduler.stats;
  compiled : Codegen.Compile.compiled;
  backend : backend_output;
  deps : Deps.Dependence.t list;
}

(* What the versions of one kernel share, each part filled on first use:
   its dependence analysis and the vectorizer client's schedule (novec and
   infl differ only in the backend's vector pass).  A run that raises
   fills nothing.  Two domains racing on one operator may both compute a
   part; the answers are equal and either may be kept. *)
type operator = {
  kernel : Ir.Kernel.t;
  mutable analysis : Deps.Analysis.analysis option;
  mutable vectorized : (Scheduling.Schedule.t * Scheduling.Scheduler.stats) option;
}

let operator kernel = { kernel; analysis = None; vectorized = None }
let kernel op = op.kernel

let c_reuses =
  Obs.Counters.create "pipeline.schedule_reuses"
    ~doc:"versions that took their operator's retained vectorizer schedule"

(* [stats] is mutable: the operator keeps its own copy and hands out copies *)
let copy (stats : Scheduling.Scheduler.stats) = { stats with ilp_solves = stats.ilp_solves }

(* Inside [run]'s scope: the operator's analysis, installed there, or run
   there and kept. *)
let analysis op =
  match op.analysis with
  | Some a ->
    Deps.Analysis.install a;
    a
  | None ->
    let a = Deps.Analysis.analyse op.kernel in
    op.analysis <- Some a;
    a

let scheduled version op =
  let fresh () = schedule ?influence:(tree version op.kernel) op.kernel in
  match ((spec version).client, op.vectorized) with
  | Vectorizer, Some (sched, stats) ->
    Obs.Counters.incr c_reuses;
    (sched, copy stats)
  | Vectorizer, None ->
    let sched, stats = fresh () in
    op.vectorized <- Some (sched, copy stats);
    (sched, stats)
  | (No_influence | Tiling), _ -> fresh ()

let run ?(machine = Gpusim.Machine.v100) version op =
  Polyhedra.Solver_memo.shared @@ fun () ->
  let deps = Deps.Analysis.deps (analysis op) in
  let sched, stats = scheduled version op in
  let compiled = lower version sched op.kernel in
  let backend =
    if Gpusim.Machine.is_cpu machine then Emitted (emit_c ~machine compiled)
    else Simulated (simulate ~machine compiled)
  in
  { sched; stats; compiled; backend; deps }
