(* Tasks are self-scheduled off a shared atomic cursor: each worker domain
   repeatedly claims the next unclaimed index, so load balances like a
   work-stealing deque without per-worker queues (tasks here are coarse —
   whole operator compilations — so the cursor is never contended enough
   to matter).  Determinism comes from the merge step, not the execution
   order: every task runs in its own Obs capture, and the coordinator
   merges the captures in task-index order after the join, so `--jobs 4`
   produces bit-identical observability to `--jobs 1`. *)

let c_tasks =
  Obs.Counters.create "service.pool_tasks"
    ~doc:"tasks executed through Service.Pool (any job count)"

let default_jobs () = Domain.recommended_domain_count ()

(* Worker domains must not spawn nested pools: a task that calls back into
   [map] runs its sub-tasks sequentially on the same domain. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

type 'b slot = { result : ('b, exn) result; capture : Obs.capture }

(* [req] is the coordinator's request id (if any): re-installed on the
   worker so trace events the task emits carry the same "req" field the
   dispatching request's own events do. *)
let run_task req f x =
  let result, capture =
    Obs.scoped (fun () ->
        Obs.Trace.with_request_opt req (fun () ->
            Obs.Counters.incr c_tasks;
            match f x with r -> Ok r | exception e -> Error e))
  in
  { result; capture }

(* Spawning is only worth it when there are real cores to spawn onto: on a
   single-core host the domains time-slice the one core and the pool pays
   capture and merge overhead for nothing (BENCH_PR5 measured
   par_speedup 0.49 exactly this way).  Kept pure and parameterized on the
   core count so the single-core branch is testable on any host. *)
let parallelizable ?cores ~jobs n =
  let cores =
    match cores with Some c -> c | None -> Domain.recommended_domain_count ()
  in
  jobs > 1 && n > 1 && cores > 1

let map ~jobs f xs =
  let n = List.length xs in
  if (not (parallelizable ~jobs n)) || Domain.DLS.get in_worker then
    List.map
      (fun x ->
        Obs.Counters.incr c_tasks;
        f x)
      xs
  else begin
    let input = Array.of_list xs in
    let slots : 'b slot option array = Array.make n None in
    let next = Atomic.make 0 in
    let req = Obs.Trace.request () in
    let worker () =
      Domain.DLS.set in_worker true;
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          slots.(i) <- Some (run_task req f input.(i));
          loop ()
        end
      in
      loop ()
    in
    let domains = List.init (min jobs n) (fun _ -> Domain.spawn worker) in
    List.iter Domain.join domains;
    (* merge in task-index order: deterministic counters and traces *)
    let out = ref [] in
    for i = n - 1 downto 0 do
      match slots.(i) with
      | None -> assert false (* every index was claimed before the join *)
      | Some s -> out := s :: !out
    done;
    List.iter (fun s -> Obs.merge s.capture) !out;
    List.map (function { result = Ok r; _ } -> r | { result = Error e; _ } -> raise e) !out
  end
