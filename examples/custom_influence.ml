(* Driving the scheduler with a hand-written influence constraint tree.

   The tree abstraction is not tied to the vectorization optimizer: any
   external decision procedure can express prioritized scheduling wishes.
   Here we force a loop interchange on a kernel with no dependences, ask
   for an impossible alternative first (to show the sibling fallback), and
   attach a payload that survives to the final schedule.

   Run with:  dune exec examples/custom_influence.exe *)

open Polyhedra
open Scheduling

let () =
  let kernel = Ops.Classics.cast_transpose ~n:64 ~m:64 () in
  Format.printf "%a@." Ir.Kernel.pp kernel;

  (* Branch 1 (highest priority): impossible on purpose — it pins the first
     scheduling dimension of T to the zero row, which progression forbids. *)
  let impossible =
    Influence.node ~label:"impossible"
      [ Constr.eq0 (Influence.coef ~stmt:"T" ~dim:0 "i");
        Constr.eq0 (Influence.coef ~stmt:"T" ~dim:0 "j")
      ]
  in
  (* Branch 2: interchange — j outermost, i innermost — and require the
     outer dimension to be parallel. *)
  let interchange =
    Influence.node ~label:"interchange" ~require_parallel:true
      ~payload:[ Schedule.Branch "interchange" ]
      [ Constr.eq (Influence.coef ~stmt:"T" ~dim:0 "j") (Linexpr.const_int 1);
        Constr.eq0 (Influence.coef ~stmt:"T" ~dim:0 "i")
      ]
  in
  let tree = [ impossible; interchange ] in
  Format.printf "influence tree:@.%a@." Influence.pp tree;

  let sched, stats =
    Polyhedra.Solver_memo.scoped (fun () -> Harness.Pipeline.schedule ~influence:tree kernel)
  in
  Format.printf "schedule:@.%a@." Schedule.pp sched;
  Format.printf "sibling fallbacks taken: %d (branch 1 was infeasible)@."
    stats.Scheduler.sibling_moves;
  let branch =
    List.find_map (function Schedule.Branch l -> Some l | _ -> None) sched.Schedule.annotations
  in
  Format.printf "payload carried to the schedule: branch %s@."
    (Option.value ~default:"?" branch);

  (* the interchanged schedule is still legal (trivially: no dependences),
     and codegen honours it *)
  (match Legality.check sched kernel (Deps.Analysis.dependences kernel) with
   | Ok () -> Format.printf "legality: OK@."
   | Error e -> Format.printf "legality: %s@." e);
  let compiled = Harness.Pipeline.lower Harness.Pipeline.Infl sched kernel in
  print_string (Codegen.Cuda.emit compiled)
