open Polybase
open Polyhedra

let nonneg_on ~coef_of ~const p =
  let cs = Polyhedron.constraints p in
  (* One multiplier per constraint: non-negative for inequalities, free for
     equalities; plus the non-negative lambda_0 which we fold directly into
     the constant equation (turning it into an inequality).  Multipliers are
     eliminated before returning, so their names only need to be unique
     within this system: numbering them per call keeps the result
     independent of earlier calls and of other domains. *)
  let tagged =
    List.mapi
      (fun i (c : Constr.t) ->
        let prefix = match c.kind with Constr.Ge -> "lam" | Constr.Eq -> "mu" in
        (Printf.sprintf "%s#%d" prefix (i + 1), c))
      cs
  in
  let vars = Polyhedron.vars p in
  (* coefficient of x_v on the Farkas side: sum_j lam_j * a_{j,v} *)
  let farkas_coef v =
    List.fold_left
      (fun acc (lam, (c : Constr.t)) ->
        let a = Linexpr.coef c.expr v in
        if Q.is_zero a then acc else Linexpr.add_term a lam acc)
      Linexpr.zero tagged
  in
  let farkas_const =
    List.fold_left
      (fun acc (lam, (c : Constr.t)) ->
        let a = Linexpr.constant c.expr in
        if Q.is_zero a then acc else Linexpr.add_term a lam acc)
      Linexpr.zero tagged
  in
  let per_var =
    List.map (fun v -> Constr.eq (coef_of v) (farkas_coef v)) vars
  in
  (* const - sum_j lam_j * cst_j = lam_0 >= 0 *)
  let const_ineq = Constr.geq const farkas_const in
  let nonneg =
    List.filter_map
      (fun (lam, (c : Constr.t)) ->
        match c.kind with
        | Constr.Ge -> Some (Constr.lower_bound lam 0)
        | Constr.Eq -> None)
      tagged
  in
  let system = (const_ineq :: per_var) @ nonneg in
  let multipliers = List.map fst tagged in
  match Fourier_motzkin.eliminate_all multipliers system with
  | cs -> cs
  | exception Fourier_motzkin.Contradiction ->
    (* No coefficient assignment can make the function non-negative. *)
    [ Constr.ge0 (Linexpr.const_int (-1)) ]
