open Polyhedra
open Ir
open Scheduling

let exclude ~stmt ~dim ~iters =
  List.map (fun it -> Constr.eq0 (Influence.coef ~stmt ~dim it)) iters

(* Constraints of one scenario, as (depth, constraint) pairs. *)
let scenario_constraints ~full (kernel : Kernel.t) (sc : Scenario.t) =
  let stmt = Kernel.stmt kernel sc.Scenario.stmt in
  let all_iters = stmt.Stmt.iters in
  let ds = Stmt.dim stmt in
  let k = List.length sc.Scenario.dims in
  let pin dim iter =
    List.map (fun c -> (dim, c)) (Influence.pin_row ~stmt:sc.stmt ~dim ~iter ~all_iters)
  in
  let pinned =
    if full then
      (* dims = [outermost .. innermost] at ordinals ds-k .. ds-1 *)
      List.concat (List.mapi (fun idx iter -> pin (ds - k + idx) iter) sc.Scenario.dims)
    else begin
      (* relaxed: only the vectorization preparation *)
      match sc.Scenario.vector_iter with
      | None -> []
      | Some iter -> pin (ds - 1) iter
    end
  in
  let excluded =
    let protect =
      if full then sc.Scenario.dims
      else match sc.Scenario.vector_iter with None -> [] | Some it -> [ it ]
    in
    let first_pinned = if full then ds - k else ds - 1 in
    List.concat
      (List.init (max 0 first_pinned) (fun dim ->
           List.map (fun c -> (dim, c)) (exclude ~stmt:sc.stmt ~dim ~iters:protect)))
  in
  pinned @ excluded

(* Assemble one branch: each depth's constraints, with the vectorization
   payload at the leaf. *)
let branch_of_set ~label ~full kernel (set : Scenario.t list) =
  let tagged = List.concat_map (scenario_constraints ~full kernel) set in
  let at d = List.filter_map (fun (dd, c) -> if dd = d then Some c else None) tagged in
  let vectors =
    List.filter_map
      (fun (sc : Scenario.t) ->
        match sc.vector_iter with
        | Some iter when sc.vector_width > 1 ->
          Some (Schedule.Vector { stmt = sc.stmt; iter; width = sc.vector_width })
        | _ -> None)
      set
  in
  Influence.chain ~label ~payload:(Schedule.Branch label :: vectors) kernel at

let branch_key (n : Influence.node) =
  let rec go (n : Influence.node) =
    String.concat ";" (List.map Constr.to_string n.Influence.constrs)
    ^ "/"
    ^ String.concat "|" (List.map go n.Influence.children)
  in
  go n

let c_trees = Obs.Counters.create "vectorizer.trees_built" ~doc:"influence trees generated"

let c_branches =
  Obs.Counters.create "vectorizer.branches" ~doc:"influence branches kept after dedup"

let scenario_sets ?weights kernel = Scenario.build_all ?weights kernel

(* The paper's cap on root alternatives (Section V: 8 scenarios). *)
let max_branches = 8

let influence_for ?weights kernel =
  Obs.Span.with_ "vectorizer.treegen" @@ fun () ->
  let sets = scenario_sets ?weights kernel in
  let branches =
    List.concat
      (List.mapi
         (fun r set ->
           [ branch_of_set ~label:(Printf.sprintf "set%d-full" r) ~full:true kernel set;
             branch_of_set ~label:(Printf.sprintf "set%d-vec" r) ~full:false kernel set
           ])
         sets)
  in
  (* drop syntactic duplicates, keep priority order, cap the branch count *)
  let _, uniq =
    List.fold_left
      (fun (seen, acc) b ->
        let k = branch_key b in
        if List.mem k seen then (seen, acc) else (k :: seen, b :: acc))
      ([], []) branches
  in
  let uniq = List.rev uniq in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: r -> x :: take (n - 1) r
  in
  let tree = take max_branches uniq in
  Obs.Counters.incr c_trees;
  Obs.Counters.add c_branches (List.length tree);
  Obs.Trace.emitf "vectorizer.tree" (fun () ->
      [ ("kernel", Obs.Json.String kernel.Kernel.name);
        ("scenario_sets", Obs.Json.Int (List.length sets));
        ("branches", Obs.Json.Int (List.length tree));
        ("size", Obs.Json.Int (Influence.size tree));
        ( "labels",
          Obs.Json.List
            (List.map (fun (n : Influence.node) -> Obs.Json.String n.Influence.label) tree)
        )
      ]);
  tree
