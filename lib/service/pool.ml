(* One path for every job count.  Tasks are self-scheduled off a shared
   atomic cursor: each worker domain — the caller and the helpers it
   spawns — repeatedly claims the next unclaimed index, so load balances
   like a work-stealing deque without per-worker queues (tasks here are
   coarse — whole operator compilations — so the cursor is never
   contended enough to matter).  Determinism comes from the merge step,
   not the execution order: every task runs in its own Obs capture, and
   the caller merges the captures in task-index order after the join, so
   `--jobs 4` produces bit-identical observability to `--jobs 1`. *)

let c_tasks =
  Obs.Counters.create "service.pool_tasks"
    ~doc:"tasks executed through Service.Pool (any job count)"

let default_jobs () = Domain.recommended_domain_count ()

(* A domain beyond the cores time-slices one of them, and pays for it at
   every stop-the-world minor collection, which waits for all domains
   (BENCH_PR5 measured par_speedup 0.49 on a single core this way). *)
let workers ?(cores = Domain.recommended_domain_count ()) ~jobs n =
  max 1 (min jobs (min n cores))

(* Set while a domain runs tasks: a task that calls back into [map] runs
   its sub-tasks on its own domain. *)
let in_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let map ~jobs f xs =
  let input = Array.of_list xs in
  let n = Array.length input in
  let slots = Array.make n None in
  let next = Atomic.make 0 in
  (* a task's exception is its result, so the loop itself never raises *)
  let work () =
    let nested = Domain.DLS.get in_task in
    Domain.DLS.set in_task true;
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        slots.(i) <-
          Some
            (Obs.scoped (fun () ->
                 Obs.Counters.incr c_tasks;
                 match f input.(i) with r -> Ok r | exception e -> Error e));
        loop ()
      end
    in
    loop ();
    Domain.DLS.set in_task nested
  in
  let helpers = if Domain.DLS.get in_task then 0 else workers ~jobs n - 1 in
  let helpers = List.init helpers (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join helpers;
  (* merge in task-index order: deterministic counters and traces; then
     the lowest-index exception, if any, is the one raised *)
  Array.to_list slots
  |> List.map (fun slot ->
         let result, capture = Option.get slot in
         Obs.merge capture;
         result)
  |> List.map (function Ok r -> r | Error e -> raise e)
