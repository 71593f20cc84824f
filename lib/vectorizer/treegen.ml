open Polyhedra
open Ir
open Scheduling

let vector_annotation_key stmt = "vec#" ^ stmt

let parse_vector_annotation v =
  match String.split_on_char ':' v with
  | [ iter; width ] -> Option.map (fun w -> (iter, w)) (int_of_string_opt width)
  | _ -> None

let cvar ~stmt ~dim it = Linexpr.var (Space.coef_var ~stmt ~dim (Space.Iter it))

let pin_row ~stmt ~dim ~iter ~all_iters =
  Constr.eq (cvar ~stmt ~dim iter) (Linexpr.const_int 1)
  :: List.filter_map
       (fun it -> if it = iter then None else Some (Constr.eq0 (cvar ~stmt ~dim it)))
       all_iters

let exclude ~stmt ~dim ~iters = List.map (fun it -> Constr.eq0 (cvar ~stmt ~dim it)) iters

(* Constraints of one scenario, as (depth, constraint) pairs. *)
let scenario_constraints ~full (kernel : Kernel.t) (sc : Scenario.t) =
  let stmt = Kernel.stmt kernel sc.Scenario.stmt in
  let all_iters = stmt.Stmt.iters in
  let ds = Stmt.dim stmt in
  let k = List.length sc.Scenario.dims in
  let pinned =
    if full then
      (* dims = [outermost .. innermost] at ordinals ds-k .. ds-1 *)
      List.concat
        (List.mapi
           (fun idx iter ->
             let dim = ds - k + idx in
             List.map (fun c -> (dim, c)) (pin_row ~stmt:sc.stmt ~dim ~iter ~all_iters))
           sc.Scenario.dims)
    else begin
      (* relaxed: only the vectorization preparation *)
      match sc.Scenario.vector_iter with
      | None -> []
      | Some iter ->
        let dim = ds - 1 in
        List.map (fun c -> (dim, c)) (pin_row ~stmt:sc.stmt ~dim ~iter ~all_iters)
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

(* Assemble one branch: a chain of nodes carrying each depth's constraints,
   with the vectorization payload at the leaf. *)
let branch_of_set ~label ~full kernel (set : Scenario.t list) =
  let depth =
    List.fold_left (fun acc (s : Ir.Stmt.t) -> max acc (Stmt.dim s)) 1 kernel.Kernel.stmts
  in
  let tagged = List.concat_map (scenario_constraints ~full kernel) set in
  let at d = List.filter_map (fun (dd, c) -> if dd = d then Some c else None) tagged in
  let payload =
    List.filter_map
      (fun (sc : Scenario.t) ->
        match sc.vector_iter with
        | Some it when sc.vector_width > 1 ->
          Some
            ( vector_annotation_key sc.stmt,
              Printf.sprintf "%s:%d" it sc.vector_width )
        | _ -> None)
      set
  in
  let payload = ("influence_branch", label) :: payload in
  let rec chain d =
    if d = depth - 1 then Influence.node ~label:(label ^ "@leaf") ~payload (at d)
    else Influence.node ~label:(Printf.sprintf "%s@%d" label d) ~children:[ chain (d + 1) ] (at d)
  in
  chain 0

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
