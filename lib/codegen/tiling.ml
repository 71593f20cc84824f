open Polybase
open Polyhedra

let band_permutable sched kernel deps ~dims ~stmts =
  let d0 = List.fold_left min max_int dims in
  let relevant =
    List.filter
      (fun (d : Deps.Dependence.t) ->
        Deps.Dependence.is_validity d && List.mem d.source stmts && List.mem d.target stmts)
      deps
  in
  List.for_all
    (fun (dep : Deps.Dependence.t) ->
      let ds = Scheduling.Builders.init_dep_state kernel dep in
      let delta d =
        let src_expr = Scheduling.Schedule.expr_for sched ~dim:d ~stmt:dep.source in
        let tgt_expr = Scheduling.Schedule.expr_for sched ~dim:d ~stmt:dep.target in
        Scheduling.Builders.delta_concrete ds ~src_expr ~tgt_expr
      in
      let rel = ref dep.rel in
      for d = 0 to d0 - 1 do
        rel := Polyhedron.add_constraint !rel (Constr.eq0 (delta d))
      done;
      List.for_all
        (fun d ->
          match Polyhedron.minimum !rel (delta d) with
          | `Empty -> true
          | `Value v -> Q.sign v >= 0
          | `Unbounded -> false)
        dims)
    relevant

(* A chain of directly nested unit-step loops: [For d0 { For d1 { ... body }}]. *)
let rec collect_chain (l : Ast.loop) =
  if l.Ast.step <> 1 || l.Ast.dim < 0 then ([], Ast.For l)
  else
    match l.Ast.body with
    | Ast.For inner ->
      let chain, rest = collect_chain inner in
      (l :: chain, rest)
    | body -> ([ l ], body)

let tile_var d = Printf.sprintf "t%dT" d

type fault = Off_by_one

let c_applied =
  Obs.Counters.create "tiling.chains_tiled" ~doc:"loop chains rewritten into tile/point loops"

let c_refused =
  Obs.Counters.create "tiling.chains_refused"
    ~doc:"tile-annotated chains refused by the permutability re-check"

let apply ?fault ~sizes sched kernel ast =
  let deps = Deps.Analysis.dependences kernel in
  (* [fault] is deliberate fault injection for the fuzzer's broken-tiler
     canary: Off_by_one drops the last point of every tile, a semantic
     change the differential interpreter check must catch. *)
  let point_slack = match fault with Some Off_by_one -> 2 | None -> 1 in
  let rec go t =
    match t with
    | Ast.Stmts l -> Ast.Stmts (List.map go l)
    | Ast.If (cs, b) -> Ast.If (cs, go b)
    | (Ast.Exec _ | Ast.VecExec _) as e -> e
    | Ast.For l -> (
      let chain, innermost_body = collect_chain l in
      let tiled_dims =
        List.filter
          (fun (c : Ast.loop) ->
            match sizes c.Ast.dim with Some s when s > 1 -> true | _ -> false)
          chain
      in
      if chain = [] || tiled_dims = [] then descend t
      else begin
        let dims = List.map (fun (c : Ast.loop) -> c.Ast.dim) chain in
        let stmts = Ast.stmts_of (Ast.For l) in
        if not (band_permutable sched kernel deps ~dims ~stmts) then begin
          Obs.Counters.incr c_refused;
          descend t
        end
        else begin
          Obs.Counters.incr c_applied;
          (* point loops, innermost body first rebuilt outward *)
          let body = go innermost_body in
          let point =
            List.fold_right
              (fun (c : Ast.loop) acc ->
                match sizes c.Ast.dim with
                | Some s when s > 1 ->
                  let tv = tile_var c.Ast.dim in
                  Ast.For
                    { c with
                      Ast.lower = [ Linexpr.var tv ];
                      upper =
                        c.Ast.upper
                        @ [ Linexpr.add_term Q.one tv (Linexpr.const_int (s - point_slack)) ];
                      trip_hint = Some s;
                      body = acc
                    }
                | _ -> Ast.For { c with Ast.body = acc })
              chain body
          in
          (* tile loops, outermost first *)
          List.fold_right
            (fun (c : Ast.loop) acc ->
              match sizes c.Ast.dim with
              | Some s when s > 1 ->
                Ast.For
                  { Ast.var = tile_var c.Ast.dim;
                    lower = c.Ast.lower;
                    upper = c.Ast.upper;
                    step = s;
                    mark = c.Ast.mark;
                    dim = c.Ast.dim - 1000;
                    trip_hint = None;
                    body = acc
                  }
              | _ -> acc)
            chain point
        end
      end)
  and descend = function
    | Ast.For l -> Ast.For { l with Ast.body = go l.Ast.body }
    | t -> go t
  in
  go ast

let tile_all ~size sched kernel ast =
  apply ~sizes:(fun _ -> Some size) sched kernel ast

let rec applied = function
  | Ast.Stmts l -> List.exists applied l
  | Ast.If (_, b) -> applied b
  | Ast.For l -> Ast.is_tile_loop l || applied l.Ast.body
  | Ast.Exec _ | Ast.VecExec _ -> false
