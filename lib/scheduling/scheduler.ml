open Polybase
open Polyhedra

type strategy = [ `Fastpath_then_ilp | `Ilp_only ]

let strategy_name = function
  | `Fastpath_then_ilp -> "fastpath-then-ilp"
  | `Ilp_only -> "ilp-only"

let strategy_of_name = function
  | "fastpath-then-ilp" -> Some `Fastpath_then_ilp
  | "ilp-only" -> Some `Ilp_only
  | _ -> None

type config = { max_ilp_nodes : int; strategy : strategy }

let default_config = { max_ilp_nodes = 200_000; strategy = `Fastpath_then_ilp }

type stats = {
  mutable ilp_solves : int;
  mutable bb_nodes : int;
  mutable loop_dims : int;
  mutable scalar_dims : int;
  mutable coincidence_failures : int;
  mutable band_ends : int;
  mutable sibling_moves : int;
  mutable ancestor_backtracks : int;
  mutable scc_separations : int;
  mutable influence_abandoned : bool;
  mutable fastpath_hits : int;
  mutable fastpath_fallbacks : int;
  mutable fastpath_validity_rejects : int;
  mutable screened : int;
}

exception Failure_no_schedule of string

let log_src = Logs.Src.create "akg.scheduler" ~doc:"influenced scheduling construction"

module Log = (val Logs.src_log log_src : Logs.LOG)

let c_schedules = Obs.Counters.create "scheduler.schedules" ~doc:"schedule constructions"
let c_solves = Obs.Counters.create "scheduler.ilp_solves" ~doc:"per-dimension ILP solves"

let c_injected =
  Obs.Counters.create "scheduler.constraints_injected"
    ~doc:"influence constraints joined to dimension ILPs"

let c_nodes_visited =
  Obs.Counters.create "scheduler.influence_nodes_visited"
    ~doc:"influence-tree nodes whose constraints were prepared"

let c_sibling = Obs.Counters.create "scheduler.sibling_moves" ~doc:"same-depth fallbacks"

let c_backtracks =
  Obs.Counters.create "scheduler.ancestor_backtracks"
    ~doc:"dimension-withdrawing backtracks"

let c_scc = Obs.Counters.create "scheduler.scc_separations" ~doc:"scalar SCC splits"
let c_abandoned = Obs.Counters.create "scheduler.abandonments" ~doc:"influence trees exhausted"

let c_coincidence_failures =
  Obs.Counters.create "scheduler.coincidence_failures"
    ~doc:"dimensions that lost the parallel attempt"

let c_band_ends = Obs.Counters.create "scheduler.band_ends" ~doc:"permutable band boundaries"

let c_cache_hits =
  Obs.Counters.create "scheduler.ilp_cache_hits"
    ~doc:"ILP solves answered from the solver memo"

let c_cache_misses =
  Obs.Counters.create "scheduler.ilp_cache_misses"
    ~doc:"ILP solves that reached the branch-and-bound solver"

let c_farkas_expansions =
  Obs.Counters.create "scheduler.farkas_expansions"
    ~doc:"Farkas linearizations computed (multipliers eliminated by Fourier-Motzkin)"

let c_farkas_hits =
  Obs.Counters.create "scheduler.farkas_memo_hits"
    ~doc:"Farkas linearizations answered from the solver memo"

let c_fastpath_hits =
  Obs.Counters.create "scheduler.fastpath_hits"
    ~doc:"dimensions committed by the sub-ILP fast path"

let c_fastpath_fallbacks =
  Obs.Counters.create "scheduler.fastpath_fallbacks"
    ~doc:"fast-path attempts that fell back to the exact ILP"

let c_fastpath_validity_rejects =
  Obs.Counters.create "scheduler.fastpath_validity_rejects"
    ~doc:"fast-path candidates rejected by a validity/coincidence/proximity check"

let c_screened =
  Obs.Counters.create "scheduler.screened"
    ~doc:"dimension ILPs ruled out by the LP of the dependence the fast path rejected"

(* --- the solver memo tables: keyed by all a result reads, so a hit returns
   what recomputing would.  A Farkas linearization reads the relation's
   constraints, the constant part and each variable's coefficient
   template; a dimension ILP its constraints, objectives, integer
   variables and node budget (a [Limit_reached] under a small budget must
   not answer a larger one). *)

let hash_exprs h es = List.fold_left (fun h e -> (h * 65599) + Linexpr.hash e) h es
let equal_exprs a b = a == b || List.equal Linexpr.equal a b

module Farkas_memo = Solver_memo.Make (struct
  type key = Constr.t list * Linexpr.t list
  type value = Constr.t list

  let hash (cs, es) = Solver_memo.hash_constrs (hash_exprs 0 es) cs
  let equal (cs, es) (cs', es') = equal_exprs es es' && Solver_memo.equal_constrs cs cs'
  let hits = c_farkas_hits
end)

module Ilp_memo = Solver_memo.Make (struct
  type key = Constr.t list * Linexpr.t list * string list * int
  type value = (string -> Q.t) option

  let hash (cs, os, vs, n) = Solver_memo.hash_constrs (hash_exprs (Hashtbl.hash (vs, n)) os) cs

  let equal (cs, os, vs, n) (cs', os', vs', n') =
    n = n' && List.equal String.equal vs vs' && equal_exprs os os'
    && Solver_memo.equal_constrs cs cs'

  let hits = c_cache_hits
end)

let nonneg_on ~coef_of ~const p =
  Farkas_memo.find
    (Polyhedron.constraints p, const :: List.map coef_of (Polyhedron.vars p))
    (fun () ->
      Obs.Counters.incr c_farkas_expansions;
      Obs.Span.with_ "scheduler.farkas" (fun () -> Farkas.nonneg_on ~coef_of ~const p))

(* Depth-first cursor into the influence tree.  [parents] holds, innermost
   first, the remaining (lower-priority) siblings of each ancestor together
   with the loop ordinal that ancestor applies to. *)
type cursor = {
  node : Influence.node;
  right : Influence.node list;
  parents : (Influence.node list * int) list;
  ordinal : int;
}

type dep_snapshot = {
  ds_band : Polyhedron.t;
  ds_active : Polyhedron.t;
  ds_retired : bool;
  ds_satisfied : bool;
}

type snapshot = {
  s_rows : Schedule.row list;
  s_env : (string * Q.t) list;
  s_dep : dep_snapshot array;
  s_payload : (string * string) list;
}

(* Strongly connected components by mutual reachability; kernels have a
   handful of statements, so the cubic closure is fine. *)
let sccs stmt_names edges =
  let n = List.length stmt_names in
  let index name =
    let rec go i = function
      | [] -> raise Not_found
      | x :: _ when x = name -> i
      | _ :: r -> go (i + 1) r
    in
    go 0 stmt_names
  in
  let reach = Array.make_matrix n n false in
  List.iter (fun (a, b) -> reach.(index a).(index b) <- true) edges;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if reach.(i).(k) && reach.(k).(j) then reach.(i).(j) <- true
      done
    done
  done;
  let comp = Array.make n (-1) in
  let ncomp = ref 0 in
  for i = 0 to n - 1 do
    if comp.(i) = -1 then begin
      comp.(i) <- !ncomp;
      for j = i + 1 to n - 1 do
        if comp.(j) = -1 && reach.(i).(j) && reach.(j).(i) then comp.(j) <- !ncomp
      done;
      incr ncomp
    end
  done;
  (comp, !ncomp, reach)

(* Topological order of the SCC DAG, ties broken by smallest original
   statement position so the baseline preserves program order. *)
let scc_topo_order stmt_names comp ncomp reach =
  let n = Array.length comp in
  let edges_between a b =
    let found = ref false in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if comp.(i) = a && comp.(j) = b && a <> b && reach.(i).(j) then found := true
      done
    done;
    !found
  in
  let min_pos = Array.make ncomp max_int in
  Array.iteri (fun i c -> if i < min_pos.(c) then min_pos.(c) <- i) comp;
  ignore stmt_names;
  let order = Array.make ncomp (-1) in
  let placed = Array.make ncomp false in
  for slot = 0 to ncomp - 1 do
    (* pick an unplaced SCC with no unplaced predecessor, smallest min_pos *)
    let best = ref (-1) in
    for c = 0 to ncomp - 1 do
      if not placed.(c) then begin
        let ready =
          let ok = ref true in
          for p = 0 to ncomp - 1 do
            if (not placed.(p)) && p <> c && edges_between p c then ok := false
          done;
          !ok
        in
        if ready && (!best = -1 || min_pos.(c) < min_pos.(!best)) then best := c
      end
    done;
    if !best = -1 then raise (Failure_no_schedule "cyclic SCC DAG");
    order.(slot) <- !best;
    placed.(!best) <- true
  done;
  (* rank of each SCC in the topological order *)
  let rank = Array.make ncomp 0 in
  Array.iteri (fun slot c -> rank.(c) <- slot) order;
  rank

let schedule ?(config = default_config) ?(influence = Influence.empty) kernel =
  Obs.Span.with_ "scheduler.schedule" @@ fun () ->
  Obs.Counters.incr c_schedules;
  Obs.Trace.emitf "scheduler.start" (fun () ->
      [ ("kernel", Obs.Json.String kernel.Ir.Kernel.name);
        ("influence_branches", Obs.Json.Int (List.length influence));
        ("influence_size", Obs.Json.Int (Influence.size influence))
      ]);
  let stats =
    { ilp_solves = 0; bb_nodes = 0; loop_dims = 0; scalar_dims = 0; coincidence_failures = 0;
      band_ends = 0; sibling_moves = 0; ancestor_backtracks = 0;
      scc_separations = 0; influence_abandoned = false;
      fastpath_hits = 0; fastpath_fallbacks = 0; fastpath_validity_rejects = 0;
      screened = 0 }
  in
  let stmts = kernel.Ir.Kernel.stmts in
  let stmt_names = List.map (fun (s : Ir.Stmt.t) -> s.Ir.Stmt.name) stmts in
  let dstates =
    Array.of_list (List.map (Builders.init_dep_state kernel) (Deps.Analysis.dependences kernel))
  in
  let dsat = Array.map (fun ds -> Polyhedron.is_empty ds.Builders.active_rel) dstates in
  let rows_rev = ref [] in
  let env : (string, Q.t) Hashtbl.t = Hashtbl.create 64 in
  let payload = ref [] in
  let cursor =
    ref
      (match influence with
       | [] -> None
       | n :: rest -> Some { node = n; right = rest; parents = []; ordinal = 0 })
  in
  let snapshots : (int, snapshot) Hashtbl.t = Hashtbl.create 8 in

  let loop_ordinal () = stats.loop_dims in

  let take_snapshot () =
    Hashtbl.replace snapshots (loop_ordinal ())
      { s_rows = !rows_rev;
        s_env = Hashtbl.fold (fun k v acc -> (k, v) :: acc) env [];
        s_dep =
          Array.mapi
            (fun i (ds : Builders.dep_state) ->
              { ds_band = ds.band_rel; ds_active = ds.active_rel; ds_retired = ds.retired;
                ds_satisfied = dsat.(i) })
            dstates;
        s_payload = !payload
      }
  in
  let restore ordinal =
    let snap = Hashtbl.find snapshots ordinal in
    rows_rev := snap.s_rows;
    Hashtbl.reset env;
    List.iter (fun (k, v) -> Hashtbl.replace env k v) snap.s_env;
    Array.iteri
      (fun i (ds : Builders.dep_state) ->
        let d = snap.s_dep.(i) in
        ds.band_rel <- d.ds_band;
        ds.active_rel <- d.ds_active;
        ds.retired <- d.ds_retired;
        dsat.(i) <- d.ds_satisfied)
      dstates;
    payload := snap.s_payload;
    (* recompute derived counters *)
    stats.loop_dims <- ordinal;
    stats.scalar_dims <-
      List.length (List.filter (fun (r : Schedule.row) -> r.kind = Schedule.Scalar) !rows_rev)
  in

  let stmt_iter_matrix (s : Ir.Stmt.t) =
    let rows =
      List.rev_map
        (fun (r : Schedule.row) ->
          let e = List.assoc s.Ir.Stmt.name r.exprs in
          Array.of_list (List.map (fun it -> Linexpr.coef e it) s.Ir.Stmt.iters))
        !rows_rev
    in
    Array.of_list rows
  in
  let full_rank (s : Ir.Stmt.t) =
    Linalg.rank (stmt_iter_matrix s) = List.length s.Ir.Stmt.iters
  in
  let all_full_rank () = List.for_all full_rank stmts in

  let unsat_states () =
    Array.to_list
      (Array.mapi (fun i ds -> (i, ds)) dstates)
    |> List.filter (fun (i, (ds : Builders.dep_state)) -> (not ds.retired) && not dsat.(i))
    |> List.map snd
  in

  (* --- constraint assembly and solving ------------------------------- *)

  let merge_objectives base extras =
    List.fold_left
      (fun acc (p, e) ->
        let rec ins i = function
          | l when i <= 0 -> e :: l
          | [] -> [ e ]
          | x :: r -> x :: ins (i - 1) r
        in
        ins (min p (List.length acc)) acc)
      base
      (List.sort (fun (a, _) (b, _) -> compare a b) extras)
  in

  (* [failed] is the dependence whose validity check rejected the fast
     path's candidate.  Its validity rows, the progression rows of its two
     statements, the coefficient bounds and the injected constraints are a
     sublist of the dimension ILP's constraints, so when their LP relaxation
     is empty the ILP is infeasible too: [None] is the ILP's own answer,
     reached before the other dependences' Farkas rows are expanded.  With
     one live dependence that subsystem is nearly the whole validity
     system, so it is not screened. *)
  let solve ?(prog_negate = false) ?failed ~coincident ~with_progression ~infl_cs
      ~infl_objs () =
    stats.ilp_solves <- stats.ilp_solves + 1;
    Obs.Counters.incr c_solves;
    Obs.Counters.add c_injected (List.length infl_cs);
    let dim = loop_ordinal () in
    let bounds = Builders.var_bounds ~dim ~stmts in
    let live =
      Array.to_list dstates |> List.filter (fun (ds : Builders.dep_state) -> not ds.retired)
    in
    let prog_of (s : Ir.Stmt.t) =
      if not with_progression then []
      else
        match
          Builders.progression ~negate:prog_negate ~dim ~stmt:s
            ~prev_iter_rows:(stmt_iter_matrix s) ()
        with
        | None -> []
        | Some cs -> cs
    in
    let screened_by =
      match failed with
      | Some (ds : Builders.dep_state) when List.compare_length_with live 1 > 0 ->
        let ends =
          List.filter
            (fun (s : Ir.Stmt.t) ->
              s.Ir.Stmt.name = ds.dep.source || s.Ir.Stmt.name = ds.dep.target)
            stmts
        in
        let subsystem =
          bounds @ Builders.validity ~nonneg_on ~dim ds
          @ List.concat_map prog_of ends @ infl_cs
        in
        if Simplex.is_feasible subsystem then None else Some ds
      | _ -> None
    in
    match screened_by with
    | Some ds ->
      stats.screened <- stats.screened + 1;
      Obs.Counters.incr c_screened;
      Obs.Trace.emitf "scheduler.screen" (fun () ->
          [ ("kernel", Obs.Json.String kernel.Ir.Kernel.name);
            ("dim", Obs.Json.Int dim);
            ("coincident", Obs.Json.Bool coincident);
            ("dependence", Obs.Json.String (ds.dep.source ^ "->" ^ ds.dep.target))
          ]);
      Log.debug (fun m ->
          m "dim %d solve: coincident=%b -> screened infeasible (%s->%s)" dim coincident
            ds.dep.source ds.dep.target);
      None
    | None ->
      let validity = List.concat_map (fun ds -> Builders.validity ~nonneg_on ~dim ds) live in
      let coin =
        if not coincident then []
        else
          List.concat_map (fun ds -> Builders.coincidence ~nonneg_on ~dim ds) (unsat_states ())
      in
      let prox =
        List.concat_map (Builders.proximity ~nonneg_on ~dim) (unsat_states ())
      in
      let prog = List.concat_map prog_of stmts in
      let constraints = bounds @ validity @ coin @ prox @ prog @ infl_cs in
      let objectives = merge_objectives (Builders.objectives ~dim ~stmts) infl_objs in
      let integer_vars = Builders.ilp_vars ~dim ~stmts in
      let bb_nodes_before = Obs.Counters.find "ilp.bb_nodes" in
      let result, solve_s =
        Obs.Span.timed (fun () ->
            Ilp_memo.find (constraints, objectives, integer_vars, config.max_ilp_nodes)
              (fun () ->
                Obs.Counters.incr c_cache_misses;
                Obs.Span.with_ "scheduler.ilp" @@ fun () ->
                match
                  Ilp.lexmin ~max_nodes:config.max_ilp_nodes ~constraints ~integer_vars
                    objectives
                with
                | exception Ilp.Limit_reached -> None
                | exception Ilp.Unbounded_objective -> None
                | r -> r))
      in
      let bb_nodes = Obs.Counters.find "ilp.bb_nodes" - bb_nodes_before in
      stats.bb_nodes <- stats.bb_nodes + bb_nodes;
      Obs.Trace.emitf "scheduler.solve" (fun () ->
          [ ("kernel", Obs.Json.String kernel.Ir.Kernel.name);
            ("dim", Obs.Json.Int dim);
            ("coincident", Obs.Json.Bool coincident);
            ("constraints", Obs.Json.Int (List.length constraints));
            ("injected", Obs.Json.Int (List.length infl_cs));
            ("objectives", Obs.Json.Int (List.length objectives));
            ("feasible", Obs.Json.Bool (Option.is_some result));
            ("bb_nodes", Obs.Json.Int bb_nodes);
            ("dur_us", Obs.Json.Float (solve_s *. 1e6))
          ]);
      Log.debug (fun m ->
          m "dim %d solve: coincident=%b constraints=%d -> %s" dim coincident
            (List.length constraints)
            (match result with Some _ -> "solution" | None -> "infeasible"));
      result
  in

  (* Sub-ILP fast path: build the provably-optimal candidate for this
     dimension and check it against the dependence relations directly; on
     any reject, fall back to the exact ILP for this dimension only.  An
     accepted candidate is the ILP's unique lexicographic optimum (see
     {!Fastpath}), so both strategies commit bit-identical rows.  [Error]
     carries the dependence an [Invalid] reject names, for [solve]. *)
  let fastpath ~coincident ~with_progression ~infl_cs ~infl_objs () =
    if config.strategy <> `Fastpath_then_ilp then Error None
    else begin
      let problem =
        { Fastpath.stmts; dim = loop_ordinal (); with_progression;
          prev_rows = stmt_iter_matrix; dstates; dsat }
      in
      let outcome, fp_s =
        Obs.Span.timed (fun () -> Fastpath.attempt ~coincident ~infl_cs ~infl_objs problem)
      in
      (match outcome with
       | Ok _ ->
         stats.fastpath_hits <- stats.fastpath_hits + 1;
         Obs.Counters.incr c_fastpath_hits
       | Error r ->
         stats.fastpath_fallbacks <- stats.fastpath_fallbacks + 1;
         Obs.Counters.incr c_fastpath_fallbacks;
         if Fastpath.is_dependence_reject r then begin
           stats.fastpath_validity_rejects <- stats.fastpath_validity_rejects + 1;
           Obs.Counters.incr c_fastpath_validity_rejects
         end);
      Obs.Trace.emitf "scheduler.fastpath" (fun () ->
          [ ("kernel", Obs.Json.String kernel.Ir.Kernel.name);
            ("dim", Obs.Json.Int (loop_ordinal ()));
            ("coincident", Obs.Json.Bool coincident);
            ("hit", Obs.Json.Bool (Result.is_ok outcome));
            ( "reject",
              Obs.Json.String
                (match outcome with
                 | Ok _ -> ""
                 | Error r -> Fastpath.reject_to_string r) );
            ("dur_us", Obs.Json.Float (fp_s *. 1e6))
          ]);
      match outcome with
      | Ok point -> Ok point
      | Error r ->
        Log.debug (fun m ->
            m "dim %d fastpath: coincident=%b -> fallback (%s)" (loop_ordinal ())
              coincident (Fastpath.reject_to_string r));
        Error (match r with Fastpath.Invalid ds -> Some ds | _ -> None)
    end
  in
  let attempt ~coincident ~with_progression ~infl_cs ~infl_objs () =
    match fastpath ~coincident ~with_progression ~infl_cs ~infl_objs () with
    | Ok a -> Some a
    | Error failed -> solve ?failed ~coincident ~with_progression ~infl_cs ~infl_objs ()
  in

  let restrict_actives row =
    Array.iteri
      (fun i (ds : Builders.dep_state) ->
        if (not ds.retired) && not dsat.(i) then begin
          let src_expr = List.assoc ds.dep.source row in
          let tgt_expr = List.assoc ds.dep.target row in
          let d = Builders.delta_concrete ds ~src_expr ~tgt_expr in
          ds.active_rel <- Polyhedron.add_constraint ds.active_rel (Constr.eq0 d);
          if Polyhedron.is_empty ds.active_rel then dsat.(i) <- true
        end)
      dstates
  in

  let commit assignment ~coincident =
    let dim = loop_ordinal () in
    let exprs =
      List.map
        (fun (s : Ir.Stmt.t) ->
          let name = s.Ir.Stmt.name in
          let record coeff =
            let v = Space.coef_var ~stmt:name ~dim coeff in
            let value = assignment v in
            Hashtbl.replace env v value;
            value
          in
          let e =
            List.fold_left
              (fun acc it -> Linexpr.add_term (record (Space.Iter it)) it acc)
              Linexpr.zero s.Ir.Stmt.iters
          in
          let e = Linexpr.add e (Linexpr.const (record Space.Const)) in
          (name, e))
        stmts
    in
    rows_rev := { Schedule.kind = Schedule.Loop { coincident }; exprs } :: !rows_rev;
    stats.loop_dims <- stats.loop_dims + 1;
    Obs.Trace.emitf "scheduler.commit" (fun () ->
        [ ("kernel", Obs.Json.String kernel.Ir.Kernel.name);
          ("dim", Obs.Json.Int dim);
          ("coincident", Obs.Json.Bool coincident)
        ]);
    restrict_actives exprs;
    (* advance the influence cursor *)
    match !cursor with
    | None -> ()
    | Some c ->
      payload := c.node.Influence.payload @ !payload;
      (match c.node.Influence.children with
       | [] -> cursor := None (* leaf reached: influence contribution over *)
       | child :: siblings ->
         cursor :=
           Some
             { node = child;
               right = siblings;
               parents = (c.right, c.ordinal) :: c.parents;
               ordinal = loop_ordinal ()
             })
  in

  (* Band boundary: retire strongly satisfied dependences, reset band
     relations of the others.  Returns whether any dependence was retired. *)
  let end_band () =
    let retired_any = ref false in
    Array.iteri
      (fun i (ds : Builders.dep_state) ->
        if not ds.retired then
          if dsat.(i) then begin
            ds.retired <- true;
            retired_any := true
          end
          else ds.band_rel <- ds.active_rel)
      dstates;
    if !retired_any then begin
      stats.band_ends <- stats.band_ends + 1;
      Obs.Counters.incr c_band_ends;
      Obs.Trace.emitf "scheduler.band_end" (fun () ->
          [ ("kernel", Obs.Json.String kernel.Ir.Kernel.name);
            ("at_dim", Obs.Json.Int (loop_ordinal ()))
          ])
    end;
    !retired_any
  in

  (* Scalar-dimension SCC separation (the last fallback of Algorithm 1). *)
  let scc_split () =
    let unsat = unsat_states () in
    let cross =
      List.filter (fun (ds : Builders.dep_state) -> ds.dep.source <> ds.dep.target) unsat
    in
    if cross = [] then false
    else begin
      let edges = List.map (fun (ds : Builders.dep_state) -> (ds.dep.source, ds.dep.target)) unsat in
      let comp, ncomp, reach = sccs stmt_names edges in
      if ncomp < 2 then false
      else begin
        let rank = scc_topo_order stmt_names comp ncomp reach in
        let exprs =
          List.mapi
            (fun i name -> (name, Linexpr.const_int rank.(comp.(i))))
            stmt_names
        in
        rows_rev := { Schedule.kind = Schedule.Scalar; exprs } :: !rows_rev;
        stats.scalar_dims <- stats.scalar_dims + 1;
        stats.scc_separations <- stats.scc_separations + 1;
        Obs.Counters.incr c_scc;
        Obs.Trace.emitf "scheduler.scc_split" (fun () ->
            [ ("kernel", Obs.Json.String kernel.Ir.Kernel.name);
              ("components", Obs.Json.Int ncomp)
            ]);
        restrict_actives exprs;
        ignore (end_band ());
        true
      end
    end
  in

  (* Influence-node constraints at the current ordinal: substitute already
     fixed coefficients; [None] when the node is (now) contradictory. *)
  let prepare_influence (node : Influence.node) =
    Obs.Counters.incr c_nodes_visited;
    let dim = loop_ordinal () in
    let subst_fixed c =
      List.fold_left
        (fun c v ->
          match Hashtbl.find_opt env v with
          | Some value -> Constr.subst v (Linexpr.const value) c
          | None -> c)
        c (Constr.vars c)
    in
    let cs = List.map subst_fixed node.Influence.constrs in
    let contradictory = List.exists (fun c -> Constr.triviality c = Some false) cs in
    let cs = List.filter (fun c -> Constr.triviality c = None) cs in
    let objs =
      List.map
        (fun (p, e) ->
          ( p,
            List.fold_left
              (fun e v ->
                match Hashtbl.find_opt env v with
                | Some value -> Linexpr.subst v (Linexpr.const value) e
                | None -> e)
              e (Linexpr.vars e) ))
        node.Influence.objectives
    in
    let malformed =
      List.exists
        (fun c ->
          List.exists
            (fun v ->
              match Space.parse_coef_var v with
              | Some (_, d, _) -> d > dim
              | None -> false)
            (Constr.vars c))
        cs
    in
    if malformed then
      raise (Failure_no_schedule "influence tree constrains a deeper dimension");
    if contradictory then None else Some (cs, objs)
  in

  (* --- the main construction loop (Algorithm 1) ----------------------- *)

  let max_steps =
    let total_dims = List.fold_left (fun acc s -> acc + Ir.Stmt.dim s) 0 stmts in
    (total_dims + List.length stmts + 8) * (Influence.size influence + 4)
  in
  let steps = ref 0 in

  let rec node_failure () =
    match !cursor with
    | None -> baseline_failure ()
    | Some c -> (
      match c.right with
      | sib :: rest ->
        stats.sibling_moves <- stats.sibling_moves + 1;
        Obs.Counters.incr c_sibling;
        Obs.Trace.emitf "scheduler.sibling_move" (fun () ->
            [ ("kernel", Obs.Json.String kernel.Ir.Kernel.name);
              ("to", Obs.Json.String sib.Influence.label);
              ("at_dim", Obs.Json.Int (loop_ordinal ()))
            ]);
        Log.debug (fun m -> m "influence: moving to sibling %S" sib.Influence.label);
        cursor := Some { c with node = sib; right = rest };
        step ()
      | [] ->
        if end_band () then step ()
        else begin
          (* closest ancestor with a remaining sibling *)
          let rec unwind = function
            | [] ->
              stats.influence_abandoned <- true;
              Obs.Counters.incr c_abandoned;
              Obs.Trace.emitf "scheduler.abandon" (fun () ->
                  [ ("kernel", Obs.Json.String kernel.Ir.Kernel.name) ]);
              Log.info (fun m ->
                  m "influence: no feasible scenario for %s, running uninfluenced"
                    kernel.Ir.Kernel.name);
              restore 0;
              cursor := None;
              step ()
            | ([], _) :: up -> unwind up
            | (sib :: rest, ordinal) :: up ->
              stats.ancestor_backtracks <- stats.ancestor_backtracks + 1;
              Obs.Counters.incr c_backtracks;
              Obs.Trace.emitf "scheduler.backtrack" (fun () ->
                  [ ("kernel", Obs.Json.String kernel.Ir.Kernel.name);
                    ("to_ordinal", Obs.Json.Int ordinal);
                    ("to", Obs.Json.String sib.Influence.label)
                  ]);
              Log.debug (fun m ->
                  m "influence: backtracking to ordinal %d, sibling %S" ordinal
                    sib.Influence.label);
              restore ordinal;
              cursor := Some { node = sib; right = rest; parents = up; ordinal };
              step ()
          in
          unwind c.parents
        end)

  and baseline_failure () =
    if end_band () then step ()
    else if scc_split () then step ()
    else (
      (* Last resort: equation 4 keeps only one cone of the orthogonal
         subspace; the valid completion row may live in the other one. *)
      match
        solve ~prog_negate:true ~coincident:false ~with_progression:true ~infl_cs:[]
          ~infl_objs:[] ()
      with
      | Some a ->
        commit a ~coincident:false;
        step ()
      | None -> raise (Failure_no_schedule "no progress possible"))

  and step () =
    incr steps;
    if !steps > max_steps then
      raise (Failure_no_schedule "construction did not converge");
    let unsat = unsat_states () in
    let full = all_full_rank () in
    match (unsat, full, !cursor) with
    | [], true, None -> () (* done *)
    | _ :: _, true, _ ->
      (* no more useful loop dimensions: retire / separate *)
      if end_band () then step ()
      else if scc_split () then step ()
      else if !cursor <> None then node_failure ()
      else raise (Failure_no_schedule "unsatisfied dependences with full-rank schedules")
    | _, _, _ -> begin
      take_snapshot ();
      let node = Option.map (fun c -> c.node) !cursor in
      let infl_cs = Option.map prepare_influence node in
      match infl_cs with
      | Some None -> node_failure () (* node contradicts fixed dimensions *)
      | infl ->
        let infl_cs, infl_objs =
          match infl with Some (Some (cs, objs)) -> (cs, objs) | _ -> ([], [])
        in
        let with_progression = not (unsat = [] && full) in
        (match attempt ~coincident:true ~with_progression ~infl_cs ~infl_objs () with
         | Some a ->
           commit a ~coincident:true;
           step ()
         | None -> (
           stats.coincidence_failures <- stats.coincidence_failures + 1;
           Obs.Counters.incr c_coincidence_failures;
           match node with
           | Some n ->
             if n.Influence.require_parallel then node_failure ()
             else (
               match attempt ~coincident:false ~with_progression ~infl_cs ~infl_objs () with
               | Some a ->
                 commit a ~coincident:false;
                 step ()
               | None -> node_failure ())
           | None ->
             if scc_split () then step ()
             else (
               match
                 attempt ~coincident:false ~with_progression ~infl_cs:[] ~infl_objs:[] ()
               with
               | Some a ->
                 commit a ~coincident:false;
                 step ()
               | None -> baseline_failure ())))
    end
  in
  step ();
  let sched =
    { Schedule.kernel_name = kernel.Ir.Kernel.name;
      stmt_names;
      rows = List.rev !rows_rev;
      annotations = !payload
    }
  in
  Obs.Trace.emitf "scheduler.done" (fun () ->
      [ ("kernel", Obs.Json.String kernel.Ir.Kernel.name);
        ("loop_dims", Obs.Json.Int stats.loop_dims);
        ("scalar_dims", Obs.Json.Int stats.scalar_dims);
        ("ilp_solves", Obs.Json.Int stats.ilp_solves);
        ("coincidence_failures", Obs.Json.Int stats.coincidence_failures);
        ("band_ends", Obs.Json.Int stats.band_ends);
        ("sibling_moves", Obs.Json.Int stats.sibling_moves);
        ("ancestor_backtracks", Obs.Json.Int stats.ancestor_backtracks);
        ("scc_separations", Obs.Json.Int stats.scc_separations);
        ("abandoned", Obs.Json.Bool stats.influence_abandoned);
        ("fastpath_hits", Obs.Json.Int stats.fastpath_hits);
        ("fastpath_fallbacks", Obs.Json.Int stats.fastpath_fallbacks)
      ]);
  (sched, stats)
