open Polybase
open Polyhedra

let dep_carried sched kernel (dep : Deps.Dependence.t) ~dim =
  let ds = Scheduling.Builders.init_dep_state kernel dep in
  let delta d =
    let src_expr = Scheduling.Schedule.expr_for sched ~dim:d ~stmt:dep.source in
    let tgt_expr = Scheduling.Schedule.expr_for sched ~dim:d ~stmt:dep.target in
    Scheduling.Builders.delta_concrete ds ~src_expr ~tgt_expr
  in
  let rel =
    Polyhedron.add_constraints dep.rel (List.init dim (fun d -> Constr.eq0 (delta d)))
  in
  match Polyhedron.maximum rel (delta dim) with
  | `Empty -> false
  | `Value v -> Q.sign v > 0
  | `Unbounded -> true

let loop_is_parallel sched kernel deps ~dim ~stmts =
  let relevant =
    List.filter
      (fun (d : Deps.Dependence.t) ->
        List.mem d.source stmts && List.mem d.target stmts)
      deps
  in
  List.for_all (fun dep -> not (dep_carried sched kernel dep ~dim)) relevant

let refine sched kernel deps ast =
  Ast.map_loops
    (fun loop ->
      match loop.Ast.mark with
      | Ast.Seq_mark | Ast.Parallel ->
        let stmts = Ast.stmts_of loop.Ast.body in
        let parallel =
          loop_is_parallel sched kernel deps ~dim:loop.Ast.dim ~stmts
        in
        { loop with Ast.mark = (if parallel then Ast.Parallel else Ast.Seq_mark) }
      | Ast.Block _ | Ast.Thread _ | Ast.BlockThread _ -> loop)
    ast
