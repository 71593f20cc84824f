type version = Isl | Novec | Infl | Tiled

type client = No_influence | Vectorizer | Tiling

type spec = {
  name : string;
  client : client;
  vectorize : bool;
  vec_min_parallel : int;
}

(* The version table.  The vectorizing versions refuse vector rewrites
   that would leave fewer than 2048 parallel iterations to map on threads. *)
let spec = function
  | Isl -> { name = "isl"; client = No_influence; vectorize = false; vec_min_parallel = 0 }
  | Novec -> { name = "novec"; client = Vectorizer; vectorize = false; vec_min_parallel = 0 }
  | Infl -> { name = "infl"; client = Vectorizer; vectorize = true; vec_min_parallel = 2048 }
  | Tiled -> { name = "tiled"; client = Tiling; vectorize = false; vec_min_parallel = 0 }

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

let tree ?max_tile_size version kernel =
  match (spec version).client with
  | No_influence -> None
  | Vectorizer -> Some (Vectorizer.Treegen.influence_for kernel)
  | Tiling -> Some (Scheduling.Tiling.influence_for ?max_tile_size kernel)

let schedule ?influence ?strategy kernel =
  let config =
    match strategy with
    | None -> Scheduling.Scheduler.default_config
    | Some strategy -> { Scheduling.Scheduler.default_config with strategy }
  in
  Scheduling.Scheduler.schedule ~config ?influence kernel

let lower ?vec_min_parallel ?tile_sizes ?tile_fault version sched kernel =
  let s = spec version in
  let vec_min_parallel = Option.value vec_min_parallel ~default:s.vec_min_parallel in
  Codegen.Compile.lower ~vectorize:s.vectorize ~vec_min_parallel ?tile_sizes ?tile_fault sched
    kernel

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

let run ?tile_sizes ?(machine = Gpusim.Machine.v100) version kernel =
  Polyhedra.Solver_memo.scoped @@ fun () ->
  let influence = tree version kernel in
  let sched, stats = schedule ?influence kernel in
  let compiled = lower ?tile_sizes version sched kernel in
  let backend =
    if Gpusim.Machine.is_cpu machine then Emitted (emit_c ~machine compiled)
    else Simulated (simulate ~machine compiled)
  in
  { sched; stats; compiled; backend; deps = Deps.Analysis.dependences kernel }
