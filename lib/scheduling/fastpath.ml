open Polybase
open Polyhedra

type problem = {
  stmts : Ir.Stmt.t list;
  dim : int;
  with_progression : bool;
  prev_rows : Ir.Stmt.t -> Linalg.mat;
  dstates : Builders.dep_state array;
  dsat : bool array;
}

type reject =
  | Influence_objectives
  | Influence_unsat
  | No_candidate
  | Ambiguous
  | Invalid of Builders.dep_state
  | Not_coincident
  | Not_proximate

let reject_to_string = function
  | Influence_objectives -> "influence-objectives"
  | Influence_unsat -> "influence-unsat"
  | No_candidate -> "no-candidate"
  | Ambiguous -> "ambiguous"
  | Invalid _ -> "invalid"
  | Not_coincident -> "not-coincident"
  | Not_proximate -> "not-proximate"

let is_dependence_reject = function
  | Invalid _ | Not_coincident | Not_proximate -> true
  | Influence_objectives | Influence_unsat | No_candidate | Ambiguous -> false

exception Reject of reject

(* Enumerating candidate rows is cheap for the ranks deep-learning kernels
   exhibit (2-4 loop dimensions), but the count is exponential in the
   number of free coefficients; past this many enumerated rows the exact
   ILP is the better tool anyway. *)
let enumeration_budget = 4096

(* --- influence constraints ------------------------------------------- *)

(* Split the injected constraints into single-variable equalities — which
   pin a coefficient to a concrete value the candidate must adopt — and a
   residual checked against the finished candidate point.  This covers
   everything the vectorizer's tree generator emits (row pins and iterator
   exclusions are all single-variable equalities); anything the heuristic
   cannot fold in rejects to the exact ILP rather than being approximated. *)
let forced_values p infl_cs =
  let forced : (string, Q.t) Hashtbl.t = Hashtbl.create 8 in
  let residual = ref [] in
  List.iter
    (fun (c : Constr.t) ->
      match (c.kind, Constr.vars c) with
      | Constr.Eq, [ v ] ->
        let coef = Linexpr.coef c.expr v in
        let value = Q.neg (Q.div (Linexpr.constant c.expr) coef) in
        (match Hashtbl.find_opt forced v with
         | Some prev when not (Q.equal prev value) -> raise (Reject Influence_unsat)
         | Some _ -> ()
         | None ->
           let bound =
             match Space.parse_coef_var v with
             | Some (_, d, _) when d <> p.dim ->
               (* dimensions below are substituted away and deeper ones are
                  rejected upstream, so this is unreachable in practice *)
               raise (Reject Influence_unsat)
             | Some (_, _, Space.Const) -> Builders.const_bound
             | Some (_, _, Space.Iter _) -> Builders.coef_bound
             | None ->
               (* w or a foreign variable: the candidate's zero point
                  may not be optimal any more — let the ILP decide *)
               raise (Reject Influence_unsat)
           in
           if
             (not (Q.is_integer value))
             || Q.sign value < 0
             || Q.compare value (Q.of_int bound) > 0
           then raise (Reject Influence_unsat);
           Hashtbl.replace forced v value)
      | _ -> residual := c :: !residual)
    infl_cs;
  (forced, List.rev !residual)

(* --- per-statement minimal rows --------------------------------------- *)

let dot row b =
  let acc = ref Q.zero in
  Array.iteri (fun j c -> acc := Q.add !acc (Q.mul c row.(j))) b;
  !acc

let progressing basis row =
  List.for_all (fun b -> Q.sign (dot row b) >= 0) basis
  && Q.compare
       (List.fold_left (fun acc b -> Q.add acc (dot row b)) Q.zero basis)
       Q.one
     >= 0

(* All assignments of the free positions with exact weighted cost [k],
   entries in [0, Builders.coef_bound].  Position weights are [j+1] — the
   exact iterator weights of the ILP's tie-breaking objective — so
   ascending [k] enumerates rows in the same order the ILP ranks them. *)
let rec assignments_of_cost free k =
  match free with
  | [] -> if k = 0 then [ [] ] else []
  | (idx, w) :: rest ->
    let acc = ref [] in
    let vmax = min Builders.coef_bound (k / w) in
    for v = vmax downto 0 do
      List.iter
        (fun tail -> acc := ((idx, v) :: tail) :: !acc)
        (assignments_of_cost rest (k - (v * w)))
    done;
    !acc

(* The unique minimal-cost progressing row for one statement, or a reject:
   [Ambiguous] when two rows tie at the minimal cost (the ILP's global
   objective could then prefer either, so the heuristic cannot claim
   exactness), [No_candidate] when no row within bounds progresses. *)
let minimal_row p ~forced (s : Ir.Stmt.t) =
  let iters = s.Ir.Stmt.iters in
  let n = List.length iters in
  let fixed =
    Array.of_list
      (List.map
         (fun it ->
           Hashtbl.find_opt forced (Space.coef_var ~stmt:s.Ir.Stmt.name ~dim:p.dim (Space.Iter it)))
         iters)
  in
  let basis =
    if not p.with_progression then []
    else begin
      let prev = p.prev_rows s in
      if Array.length prev = 0 then Array.to_list (Linalg.identity n)
      else Linalg.nullspace prev
    end
  in
  let base_row () =
    Array.init n (fun j -> match fixed.(j) with Some v -> v | None -> Q.zero)
  in
  if basis = [] then
    (* no progression requirement: the all-zero free part is the unique
       cost minimum (every position weight is positive) *)
    base_row ()
  else begin
    let free = ref [] in
    for j = n - 1 downto 0 do
      if fixed.(j) = None then free := (j, j + 1) :: !free
    done;
    let free = !free in
    let max_cost =
      List.fold_left (fun acc (_, w) -> acc + (w * Builders.coef_bound)) 0 free
    in
    let enumerated = ref 0 in
    let rec at_cost k =
      if k > max_cost then raise (Reject No_candidate)
      else begin
        let rows =
          List.map
            (fun assign ->
              let row = base_row () in
              List.iter (fun (idx, v) -> row.(idx) <- Q.of_int v) assign;
              row)
            (assignments_of_cost free k)
        in
        enumerated := !enumerated + List.length rows;
        if !enumerated > enumeration_budget then raise (Reject No_candidate);
        match List.filter (progressing basis) rows with
        | [] -> at_cost (k + 1)
        | [ row ] -> row
        | _ :: _ :: _ -> raise (Reject Ambiguous)
      end
    in
    at_cost 0
  end

(* --- candidate assembly and semantic checks --------------------------- *)

let attempt ~coincident ~infl_cs ~infl_objs p =
  try
    if infl_objs <> [] then raise (Reject Influence_objectives);
    let forced, residual = forced_values p infl_cs in
    let env : (string, Q.t) Hashtbl.t = Hashtbl.create 64 in
    let forced_or_zero v =
      match Hashtbl.find_opt forced v with Some value -> value | None -> Q.zero
    in
    let exprs =
      List.map
        (fun (s : Ir.Stmt.t) ->
          let name = s.Ir.Stmt.name in
          let row = minimal_row p ~forced s in
          let e, _ =
            List.fold_left
              (fun (acc, j) it ->
                let v = Space.coef_var ~stmt:name ~dim:p.dim (Space.Iter it) in
                Hashtbl.replace env v row.(j);
                (Linexpr.add_term row.(j) it acc, j + 1))
              (Linexpr.zero, 0) s.Ir.Stmt.iters
          in
          let cv = Space.coef_var ~stmt:name ~dim:p.dim Space.Const in
          let cvalue = forced_or_zero cv in
          Hashtbl.replace env cv cvalue;
          (name, Linexpr.add e (Linexpr.const cvalue)))
        p.stmts
    in
    (* influence equalities on non-row variables were folded into [env];
       everything else must hold at the candidate point (all remaining
       variables — w, foreign coefficients — sit at zero there) *)
    let point v = match Hashtbl.find_opt env v with Some q -> q | None -> Q.zero in
    if not (List.for_all (Constr.holds point) residual) then
      raise (Reject Influence_unsat);
    let delta (ds : Builders.dep_state) =
      let src_expr = List.assoc ds.dep.source exprs in
      let tgt_expr = List.assoc ds.dep.target exprs in
      Builders.delta_concrete ds ~src_expr ~tgt_expr
    in
    (* validity: non-negative dependence distance over each band relation *)
    Array.iter
      (fun (ds : Builders.dep_state) ->
        if not ds.retired then
          if not (Polyhedron.nonneg_on ds.band_rel (delta ds)) then
            raise (Reject (Invalid ds)))
      p.dstates;
    (* coincidence (parallel attempt): zero distance on every active,
       unsatisfied dependence — this is exactly what the ILP's two-sided
       Farkas coincidence constraints demand, and it subsumes the
       zero-bound proximity check for those dependences *)
    Array.iteri
      (fun i (ds : Builders.dep_state) ->
        if (not ds.retired) && not p.dsat.(i) then
          if coincident then begin
            if not (Polyhedron.zero_on ds.active_rel (delta ds)) then
              raise (Reject Not_coincident)
          end
          else if not (Polyhedron.nonpos_on ds.active_rel (delta ds)) then
            raise (Reject Not_proximate))
      p.dstates;
    Ok point
  with Reject r -> Error r
