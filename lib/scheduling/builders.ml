open Polybase
open Polyhedra
open Deps

type dep_state = {
  dep : Dependence.t;
  tgt_orig_iters : string list;
  mutable band_rel : Polyhedron.t;
  mutable active_rel : Polyhedron.t;
  mutable retired : bool;
}

let init_dep_state kernel (dep : Dependence.t) =
  let tgt = Ir.Kernel.stmt kernel dep.target in
  { dep;
    tgt_orig_iters = tgt.Ir.Stmt.iters;
    band_rel = dep.rel;
    active_rel = dep.rel;
    retired = false
  }

(* The schedule difference [delta = phi_T(t) - phi_S(s)] at a dimension, as
   a coefficient template over the relation's variables (the multiplier of
   each one, in unknown schedule coefficients, and the constant part) for
   {!Farkas.nonneg_on}.  Relation variables are source iterators and target
   iterators (possibly renamed): {!Ir.Kernel.make} admits no other variable
   in a domain or an access. *)
let delta_template ~dim ds =
  let dep = ds.dep in
  let src = dep.source and tgt = dep.target in
  let tgt_assoc = List.combine dep.tgt_iters ds.tgt_orig_iters in
  let coef_of v =
    match List.assoc_opt v tgt_assoc with
    | Some orig -> Linexpr.var (Space.coef_var ~stmt:tgt ~dim (Space.Iter orig))
    | None -> Linexpr.var ~coef:Q.minus_one (Space.coef_var ~stmt:src ~dim (Space.Iter v))
  in
  let const =
    Linexpr.sub
      (Linexpr.var (Space.coef_var ~stmt:tgt ~dim Space.Const))
      (Linexpr.var (Space.coef_var ~stmt:src ~dim Space.Const))
  in
  (coef_of, const)

let delta_concrete ds ~src_expr ~tgt_expr =
  let dep = ds.dep in
  let rename x =
    match
      List.find_opt (fun (orig, _) -> orig = x) (List.combine ds.tgt_orig_iters dep.tgt_iters)
    with
    | Some (_, renamed) -> renamed
    | None -> x
  in
  Linexpr.sub (Linexpr.rename rename tgt_expr) src_expr

type nonneg_on =
  coef_of:(string -> Linexpr.t) -> const:Linexpr.t -> Polyhedron.t -> Constr.t list

let validity ~(nonneg_on : nonneg_on) ~dim ds =
  let coef_of, const = delta_template ~dim ds in
  nonneg_on ~coef_of ~const ds.band_rel

let coincidence ~(nonneg_on : nonneg_on) ~dim ds =
  let coef_of, const = delta_template ~dim ds in
  let neg_coef v = Linexpr.neg (coef_of v) in
  nonneg_on ~coef_of ~const ds.active_rel
  @ nonneg_on ~coef_of:neg_coef ~const:(Linexpr.neg const) ds.active_rel

let proximity ~(nonneg_on : nonneg_on) ~dim ds =
  let coef_of, const = delta_template ~dim ds in
  (* w - delta >= 0 *)
  let bound_coef v = Linexpr.neg (coef_of v) in
  let bound_const = Linexpr.add_term Q.one Space.bound_w (Linexpr.neg const) in
  nonneg_on ~coef_of:bound_coef ~const:bound_const ds.active_rel

let progression ?(negate = false) ~dim ~stmt ~prev_iter_rows () =
  let iters = stmt.Ir.Stmt.iters in
  let n = List.length iters in
  let basis =
    if Array.length prev_iter_rows = 0 then
      Array.to_list (Linalg.identity n)
    else Linalg.nullspace prev_iter_rows
  in
  let basis =
    if negate then List.map (Array.map Polybase.Q.neg) basis else basis
  in
  if basis = [] then None
  else begin
    let h =
      List.map
        (fun it -> Linexpr.var (Space.coef_var ~stmt:stmt.Ir.Stmt.name ~dim (Space.Iter it)))
        iters
    in
    let dot row =
      List.fold_left2
        (fun acc coeff e -> Linexpr.add acc (Linexpr.scale coeff e))
        Linexpr.zero (Array.to_list row) h
    in
    let per_row = List.map (fun row -> Constr.ge0 (dot row)) basis in
    let total = List.fold_left (fun acc row -> Linexpr.add acc (dot row)) Linexpr.zero basis in
    Some (Constr.ge0 (Linexpr.add total (Linexpr.const_int (-1))) :: per_row)
  end

let coef_bound = 4
let const_bound = 4

let var_bounds ~dim ~stmts =
  let for_stmt (s : Ir.Stmt.t) =
    let name = s.Ir.Stmt.name in
    let iter_bounds =
      List.concat_map
        (fun it ->
          let v = Space.coef_var ~stmt:name ~dim (Space.Iter it) in
          [ Constr.lower_bound v 0; Constr.upper_bound v coef_bound ])
        s.Ir.Stmt.iters
    in
    let cv = Space.coef_var ~stmt:name ~dim Space.Const in
    iter_bounds @ [ Constr.lower_bound cv 0; Constr.upper_bound cv const_bound ]
  in
  Constr.lower_bound Space.bound_w 0 :: List.concat_map for_stmt stmts

let objectives ~dim ~stmts =
  let sum_over f = List.fold_left (fun acc x -> Linexpr.add acc (f x)) Linexpr.zero in
  let w = Linexpr.var Space.bound_w in
  let const_sum =
    sum_over
      (fun (s : Ir.Stmt.t) ->
        Linexpr.var (Space.coef_var ~stmt:s.Ir.Stmt.name ~dim Space.Const))
      stmts
  in
  (* Position-weighted iterator sum: ties broken toward the original loop
     order, emulating isl's preference for identity-like schedules. *)
  let iter_weighted =
    sum_over
      (fun (s : Ir.Stmt.t) ->
        List.fold_left
          (fun (acc, j) it ->
            ( Linexpr.add_term (Q.of_int (j + 1))
                (Space.coef_var ~stmt:s.Ir.Stmt.name ~dim (Space.Iter it))
                acc,
              j + 1 ))
          (Linexpr.zero, 0) s.Ir.Stmt.iters
        |> fst)
      stmts
  in
  [ w; const_sum; iter_weighted ]

let ilp_vars ~dim ~stmts =
  List.concat_map
    (fun (s : Ir.Stmt.t) ->
      let name = s.Ir.Stmt.name in
      Space.coef_var ~stmt:name ~dim Space.Const
      :: List.map (fun it -> Space.coef_var ~stmt:name ~dim (Space.Iter it)) s.Ir.Stmt.iters)
    stmts
