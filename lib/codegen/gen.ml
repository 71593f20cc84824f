open Polybase
open Polyhedra
open Ir

type stmt_ctx = {
  stmt : Stmt.t;
  row_exprs : Linexpr.t array;  (* schedule rows for this statement *)
  proj : Polyhedron.t array;  (* proj.(d): transformed domain onto t0..td *)
  iter_map : (string * Linexpr.t) list;
  mutable guards : Constr.t list;
}

(* Invert the (full-rank) iterator part of the schedule: pick a set of rows
   whose iterator-coefficient vectors are linearly independent, solve the
   square system. *)
let iter_map_for sched (stmt : Stmt.t) =
  let iters = stmt.Stmt.iters in
  let n = List.length iters in
  let rows = List.mapi (fun d (r : Scheduling.Schedule.row) -> (d, List.assoc stmt.Stmt.name r.exprs)) sched.Scheduling.Schedule.rows in
  (* greedily select rows that increase the rank *)
  let selected = ref [] in
  List.iter
    (fun (d, e) ->
      if List.length !selected < n then begin
        let coefs = Array.of_list (List.map (fun it -> Linexpr.coef e it) iters) in
        let m = Array.of_list (List.rev_map (fun (_, _, c) -> c) !selected @ [ coefs ]) in
        if Linalg.rank m > List.length !selected then
          selected := (d, e, coefs) :: !selected
      end)
    rows;
  let selected = List.rev !selected in
  if List.length selected <> n then
    failwith ("Gen: schedule of " ^ stmt.Stmt.name ^ " is not full-rank");
  let m = Array.of_list (List.map (fun (_, _, c) -> c) selected) in
  let minv =
    match Linalg.inverse m with
    | Some inv -> inv
    | None -> failwith "Gen: selected rows not invertible"
  in
  (* i = M^-1 (t_sel - shift), where shift is the non-iterator part of the
     selected rows (constants and parameters). *)
  let t_minus_shift =
    List.map
      (fun (d, e, _) ->
        let shift =
          List.fold_left (fun acc it -> Linexpr.subst it Linexpr.zero acc) e iters
        in
        Linexpr.sub (Linexpr.var (Ast.loop_var d)) shift)
      selected
  in
  List.mapi
    (fun i it ->
      let expr =
        List.fold_left2
          (fun acc coeff rhs -> Linexpr.add acc (Linexpr.scale coeff rhs))
          Linexpr.zero
          (Array.to_list minv.(i))
          t_minus_shift
      in
      (it, expr))
    iters

let make_ctx sched (stmt : Stmt.t) =
  let m = Scheduling.Schedule.dims sched in
  let row_exprs =
    Array.init m (fun d -> Scheduling.Schedule.expr_for sched ~dim:d ~stmt:stmt.Stmt.name)
  in
  let full =
    (* domain /\ t_d = theta_d(i), then eliminate the iterators *)
    let eqs =
      List.init m (fun d ->
          Constr.eq (Linexpr.var (Ast.loop_var d)) row_exprs.(d))
    in
    let with_t = Polyhedron.add_constraints stmt.Stmt.domain eqs in
    Polyhedron.project_out stmt.Stmt.iters with_t
  in
  let proj = Array.make m full in
  (* proj.(d) keeps only t0..td *)
  for d = m - 2 downto 0 do
    proj.(d) <- Polyhedron.project_out [ Ast.loop_var (d + 1) ] proj.(d + 1)
  done;
  { stmt; row_exprs; proj; iter_map = iter_map_for sched stmt; guards = [] }

(* Lower/upper bound expressions of [t_d] from a projection polyhedron. *)
let bounds_of proj_d td =
  let lo = ref [] and hi = ref [] in
  List.iter
    (fun (c : Constr.t) ->
      let a = Linexpr.coef c.expr td in
      if not (Q.is_zero a) then begin
        let rest = Linexpr.add_term (Q.neg a) td c.expr in
        let bound = Linexpr.scale (Q.neg (Q.inv a)) rest in
        match c.kind with
        | Constr.Ge ->
          if Q.sign a > 0 then lo := bound :: !lo else hi := bound :: !hi
        | Constr.Eq ->
          lo := bound :: !lo;
          hi := bound :: !hi
      end)
    (Polyhedron.constraints proj_d);
  let canon l = List.sort_uniq Linexpr.compare l in
  (canon !lo, canon !hi)

let same_bounds (a : Linexpr.t list) b =
  List.length a = List.length b && List.for_all2 Linexpr.equal a b

let numeric_bound proj_d td ~maximize =
  let v = Linexpr.var td in
  let r = if maximize then Polyhedron.maximum proj_d v else Polyhedron.minimum proj_d v in
  match r with
  | `Value q -> if maximize then Q.floor q else Q.ceil q
  | `Unbounded -> failwith "Gen: unbounded loop dimension"
  | `Empty -> failwith "Gen: empty statement projection"

let original_position kernel name = Kernel.stmt_position kernel name

let generate sched kernel =
  let m = Scheduling.Schedule.dims sched in
  let ctxs = List.map (make_ctx sched) kernel.Kernel.stmts in
  let rec gen d (group : stmt_ctx list) =
    if d >= m then begin
      (* all dimensions fixed: emit statement instances in original order *)
      let ordered =
        List.sort
          (fun a b ->
            compare
              (original_position kernel a.stmt.Stmt.name)
              (original_position kernel b.stmt.Stmt.name))
          group
      in
      let exec ctx =
        let e = Ast.Exec { Ast.stmt = ctx.stmt.Stmt.name; iter_map = ctx.iter_map } in
        match ctx.guards with [] -> e | gs -> Ast.If (List.rev gs, e)
      in
      match List.map exec ordered with
      | [ one ] -> one
      | several -> Ast.Stmts several
    end
    else begin
      let td = Ast.loop_var d in
      let all_const =
        List.for_all (fun c -> Linexpr.is_const c.row_exprs.(d)) group
      in
      if all_const then begin
        (* pure sequencing: partition by the constant date *)
        let keyed =
          List.map (fun c -> (Linexpr.constant c.row_exprs.(d), c)) group
        in
        let keys = List.sort_uniq Q.compare (List.map fst keyed) in
        let parts =
          List.map
            (fun k -> List.filter_map (fun (k', c) -> if Q.equal k k' then Some c else None) keyed)
            keys
        in
        match List.map (gen (d + 1)) parts with
        | [ one ] -> one
        | several -> Ast.Stmts several
      end
      else begin
        let per_stmt = List.map (fun c -> (c, bounds_of c.proj.(d) td)) group in
        let (_, (lo0, hi0)) = List.hd per_stmt in
        let shared =
          List.for_all (fun (_, (lo, hi)) -> same_bounds lo lo0 && same_bounds hi hi0) per_stmt
        in
        let lower, upper =
          if shared then (lo0, hi0)
          else begin
            (* conservative rectangular hull + per-statement guards *)
            let los = List.map (fun (c, _) -> numeric_bound c.proj.(d) td ~maximize:false) per_stmt in
            let his = List.map (fun (c, _) -> numeric_bound c.proj.(d) td ~maximize:true) per_stmt in
            let glo = List.fold_left Bigint.min (List.hd los) (List.tl los) in
            let ghi = List.fold_left Bigint.max (List.hd his) (List.tl his) in
            let all_const es = List.for_all Linexpr.is_const es in
            List.iter2
              (fun (c, (lo, hi)) (nlo, nhi) ->
                (* No guard when the statement's own bounds are constants
                   that already span the hull; a single-point range becomes
                   an equality guard (what the vector pass understands). *)
                if all_const lo && all_const hi && Bigint.equal nlo glo && Bigint.equal nhi ghi
                then ()
                else if all_const lo && all_const hi && Bigint.equal nlo nhi then
                  c.guards <-
                    Constr.eq (Linexpr.var td) (Linexpr.const (Q.of_bigint nlo)) :: c.guards
                else begin
                  let own_lo = List.map (fun e -> Constr.geq (Linexpr.var td) e) lo in
                  let own_hi = List.map (fun e -> Constr.leq (Linexpr.var td) e) hi in
                  c.guards <- own_hi @ own_lo @ c.guards
                end)
              per_stmt
              (List.combine los his);
            ([ Linexpr.const (Q.of_bigint glo) ], [ Linexpr.const (Q.of_bigint ghi) ])
          end
        in
        let kind = (List.nth sched.Scheduling.Schedule.rows d).Scheduling.Schedule.kind in
        let mark =
          match kind with
          | Scheduling.Schedule.Loop { coincident = true } -> Ast.Parallel
          | Scheduling.Schedule.Loop { coincident = false } -> Ast.Seq_mark
          | Scheduling.Schedule.Scalar -> Ast.Seq_mark
        in
        Ast.For
          { Ast.var = td; lower; upper; kind = Ast.Plain; mark; dim = d; trip_hint = None;
            body = gen (d + 1) group }
      end
    end
  in
  gen 0 ctxs
