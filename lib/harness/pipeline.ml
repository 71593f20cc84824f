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

(* The work the versions of one digest share, each part filled on first
   use by a run that computed it: the dependence analysis, a schedule per
   client, a lowering per version and a simulation per version and
   machine.  The schedules and lowerings carry the name of the kernel
   that computed them; [run] hands them out under its own operator's
   kernel.  Two domains racing on a part may both compute it; the answers
   are equal and either may be kept.  The slots are written whole, and the report lists swapped
   through [Atomic], so no table is mutated. *)
type work = {
  mutable analysis : Deps.Analysis.analysis option;
  schedules : (Scheduling.Schedule.t * Scheduling.Scheduler.stats) option array;
      (* by [client_slot] *)
  lowerings : Codegen.Compile.compiled option array;  (* by [version_slot] *)
  reports : (Gpusim.Machine.t * Gpusim.Sim.report) list Atomic.t array;
      (* by [version_slot] *)
}

type operator = { kernel : Ir.Kernel.t; work : work }

let client_slot = function No_influence -> 0 | Vectorizer -> 1 | Tiling -> 2
let version_slot = function Isl -> 0 | Novec -> 1 | Infl -> 2 | Tiled -> 3

let operator kernel =
  { kernel;
    work =
      { analysis = None;
        schedules = Array.make 3 None;
        lowerings = Array.make 4 None;
        reports = Array.init 4 (fun _ -> Atomic.make [])
      }
  }

let kernel op = op.kernel

let share op kernel =
  if Ir.Kernel.digest op.kernel <> Ir.Kernel.digest kernel then
    invalid_arg "Pipeline.share: the kernels' digests differ";
  { kernel; work = op.work }

let c_reuses =
  Obs.Counters.create "pipeline.schedule_reuses"
    ~doc:"versions that took their operator's retained schedule"

(* [stats] is mutable: the operator keeps its own copy and hands out copies *)
let copy (stats : Scheduling.Scheduler.stats) = { stats with ilp_solves = stats.ilp_solves }

(* Inside [run]'s scope: the operator's analysis, installed there, or run
   there and kept. *)
let analysis op =
  match op.work.analysis with
  | Some a ->
    Deps.Analysis.install a;
    a
  | None ->
    let a = Deps.Analysis.analyse op.kernel in
    op.work.analysis <- Some a;
    a

let scheduled version op =
  let slot = client_slot (spec version).client in
  match op.work.schedules.(slot) with
  | Some (sched, stats) ->
    Obs.Counters.incr c_reuses;
    ({ sched with Scheduling.Schedule.kernel_name = op.kernel.Ir.Kernel.name }, copy stats)
  | None ->
    let sched, stats = schedule ?influence:(tree version op.kernel) op.kernel in
    op.work.schedules.(slot) <- Some (sched, copy stats);
    (sched, stats)

let lowered version op sched =
  let slot = version_slot version in
  match op.work.lowerings.(slot) with
  | Some compiled -> { compiled with Codegen.Compile.kernel = op.kernel; schedule = sched }
  | None ->
    let compiled = lower version sched op.kernel in
    op.work.lowerings.(slot) <- Some compiled;
    compiled

(* A report names no kernel.  Machines compare by value, so a tuned
   profile under a stock profile's name is simulated apart. *)
let simulated version op ~machine compiled =
  let reports = op.work.reports.(version_slot version) in
  let find kept = List.find_opt (fun (m, _) -> m == machine || m = machine) kept in
  match find (Atomic.get reports) with
  | Some (_, report) -> report
  | None ->
    let report = simulate ~machine compiled in
    let rec keep () =
      let kept = Atomic.get reports in
      if find kept = None && not (Atomic.compare_and_set reports kept ((machine, report) :: kept))
      then keep ()
    in
    keep ();
    report

let run ?(machine = Gpusim.Machine.v100) version op =
  Polyhedra.Solver_memo.shared @@ fun () ->
  let deps = Deps.Analysis.deps (analysis op) in
  let sched, stats = scheduled version op in
  let compiled = lowered version op sched in
  let backend =
    if Gpusim.Machine.is_cpu machine then Emitted (emit_c ~machine compiled)
    else Simulated (simulated version op ~machine compiled)
  in
  { sched; stats; compiled; backend; deps }
