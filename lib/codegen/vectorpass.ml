open Polybase
open Polyhedra

(* Per-statement [(stmt, schedule_dim, width)] plan: the row that is
   exactly the iterator the schedule's Vector annotation names. *)
let vector_dims (sched : Scheduling.Schedule.t) kernel =
  List.filter_map
    (fun (s : Ir.Stmt.t) ->
      let stmt = s.Ir.Stmt.name in
      match
        List.find_map
          (function
            | Scheduling.Schedule.Vector v when v.stmt = stmt -> Some (v.iter, v.width)
            | _ -> None)
          sched.Scheduling.Schedule.annotations
      with
      | None -> None
      | Some (iter, width) ->
        let rec find d =
          if d >= Scheduling.Schedule.dims sched then None
          else begin
            let e = Scheduling.Schedule.expr_for sched ~dim:d ~stmt in
            if Linexpr.equal e (Linexpr.var iter) then Some d else find (d + 1)
          end
        in
        Option.map (fun d -> (stmt, d, width)) (find 0))
    kernel.Ir.Kernel.stmts

let const_bound = function
  | [ e ] when Linexpr.is_const e -> Some (Linexpr.constant e)
  | _ -> None

let rec no_inner_for = function
  | Ast.For _ -> false
  | Ast.Stmts l -> List.for_all no_inner_for l
  | Ast.If (_, b) -> no_inner_for b
  | Ast.Exec _ | Ast.VecExec _ -> true

(* Statements under the loop, split into unguarded and guarded-on-var. *)
let rec collect_execs var = function
  | Ast.Stmts l -> List.concat_map (collect_execs var) l
  | Ast.For _ -> []
  | Ast.If (cs, b) ->
    let guards_var =
      List.filter (fun (c : Constr.t) -> not (Q.is_zero (Linexpr.coef c.expr var))) cs
    in
    List.map
      (fun (name, g) -> (name, g @ List.map (fun c -> (c : Constr.t)) guards_var))
      (collect_execs var b)
  | Ast.Exec e -> [ (e.Ast.stmt, []) ]
  | Ast.VecExec (e, _) -> [ (e.Ast.stmt, []) ]

let rec vectorize_body width var = function
  | Ast.Stmts l -> Ast.Stmts (List.map (vectorize_body width var) l)
  | Ast.For l -> Ast.For l (* unreachable: checked by no_inner_for *)
  | Ast.If (cs, b) ->
    let guarded_on_var =
      List.exists (fun (c : Constr.t) -> not (Q.is_zero (Linexpr.coef c.expr var))) cs
    in
    if guarded_on_var then Ast.If (cs, b) (* stays scalar, fires on lane 0 *)
    else Ast.If (cs, vectorize_body width var b)
  | Ast.Exec e -> Ast.VecExec (e, width)
  | Ast.VecExec (e, w) -> Ast.VecExec (e, w)

(* product of the (constant) extents of all parallel loops, one factor per
   schedule dimension: the kernel's thread-parallel capacity *)
let parallel_capacity ast =
  let table : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let rec go = function
    | Ast.Stmts l -> List.iter go l
    | Ast.If (_, b) -> go b
    | Ast.Exec _ | Ast.VecExec _ -> ()
    | Ast.For l ->
      (match l.Ast.mark with
       | Ast.Parallel -> (
         match (const_bound l.Ast.lower, const_bound l.Ast.upper) with
         | Some lo, Some hi ->
           let e = Bigint.to_int (Bigint.sub (Q.floor hi) (Q.ceil lo)) + 1 in
           let cur = Option.value ~default:1 (Hashtbl.find_opt table l.Ast.dim) in
           Hashtbl.replace table l.Ast.dim (max cur e)
         | _ -> ())
       | _ -> ());
      go l.Ast.body
  in
  go ast;
  Hashtbl.fold (fun _ e acc -> acc * e) table 1

let apply ?(min_parallel = 0) sched kernel deps ast =
  let plan = vector_dims sched kernel in
  if plan = [] then ast
  else begin
    let capacity = parallel_capacity ast in
    Ast.map_loops
      (fun loop ->
        if loop.Ast.kind <> Ast.Plain then loop
        else begin
          let execs = collect_execs loop.Ast.var loop.Ast.body in
          let unguarded = List.filter (fun (_, g) -> g = []) execs in
          let guarded = List.filter (fun (_, g) -> g <> []) execs in
          let widths =
            List.map
              (fun (name, _) ->
                match List.find_opt (fun (n, d, _) -> n = name && d = loop.Ast.dim) plan with
                | Some (_, _, w) -> w
                | None -> 1)
              unguarded
          in
          let ok_widths = unguarded <> [] && List.for_all (fun w -> w > 1) widths in
          if not (ok_widths && no_inner_for loop.Ast.body) then loop
          else begin
            let width = List.fold_left min 4 widths in
            let stmts = Ast.stmts_of loop.Ast.body in
            (* Lane expansion keeps each statement's lanes in order and runs
               body items in body order, so the only reorderings are
               (later body item, lower lane) vs (earlier body item, higher
               lane): a dependence is endangered only when it is carried at
               this dimension AND flows from a later body item to an
               earlier one. *)
            let position s =
              let rec go i = function
                | [] -> max_int
                | x :: _ when x = s -> i
                | _ :: r -> go (i + 1) r
              in
              go 0 stmts
            in
            let safe_order =
              List.for_all
                (fun (dep : Deps.Dependence.t) ->
                  (not (List.mem dep.source stmts))
                  || (not (List.mem dep.target stmts))
                  || dep.source = dep.target
                  || position dep.source <= position dep.target
                  || not (Marks.dep_carried sched kernel dep ~dim:loop.Ast.dim))
                deps
            in
            let bounds_ok =
              match (const_bound loop.Ast.lower, const_bound loop.Ast.upper) with
              | Some lo, Some hi ->
                let extent =
                  Bigint.to_int (Bigint.sub (Q.floor hi) (Q.ceil lo)) + 1
                in
                extent mod width = 0
                (* guarded statements must fire on a lane-0-aligned value *)
                && List.for_all
                     (fun (_, gs) ->
                       List.for_all
                         (fun (c : Constr.t) ->
                           c.kind = Constr.Eq
                           &&
                           let a = Linexpr.coef c.expr loop.Ast.var in
                           let rest = Linexpr.add_term (Q.neg a) loop.Ast.var c.expr in
                           Linexpr.is_const rest
                           &&
                           let v = Q.div (Linexpr.constant rest) (Q.neg a) in
                           Q.is_integer v && Q.to_int v mod width = 0)
                         gs)
                     guarded
              | _ -> false
            in
            if not (safe_order && bounds_ok) then loop
            (* Profitability: widening a parallel loop divides the thread
               supply by the width; refuse when the kernel would no longer
               fill the machine (vector lanes of a sequential loop cost no
               parallelism).  The strip keeps the mark {!Marks.refine} set. *)
            else if loop.Ast.mark = Ast.Parallel && capacity / width < min_parallel then loop
            else
              { loop with
                Ast.kind = Ast.Vector width;
                body = vectorize_body width loop.Ast.var loop.Ast.body
              }
          end
        end)
      ast
  end
