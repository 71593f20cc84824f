open Polybase

(* [Bottom] marks a polyhedron detected as syntactically contradictory; it
   avoids re-running simplification on known-empty sets. *)
type t = Set of Constr.t list | Bottom

let of_constraints cs =
  match Fourier_motzkin.simplify cs with
  | cs -> Set cs
  | exception Fourier_motzkin.Contradiction -> Bottom

let constraints = function
  | Set cs -> cs
  | Bottom -> [ Constr.ge0 (Linexpr.const_int (-1)) ]

let add_constraint p c =
  match p with Bottom -> Bottom | Set cs -> of_constraints (c :: cs)

(* One simplification over the union gives the same set as adding the
   constraints one at a time: normalization is idempotent and the result
   is a sorted set, so only the number of sorts changes. *)
let add_constraints p = function
  | [] -> p
  | new_cs -> ( match p with Bottom -> Bottom | Set cs -> of_constraints (new_cs @ cs))

let inter a b =
  match (a, b) with
  | Bottom, _ | _, Bottom -> Bottom
  | Set ca, Set cb -> of_constraints (ca @ cb)

let vars = function
  | Bottom -> []
  | Set cs ->
    List.sort_uniq String.compare (List.concat_map Constr.vars cs)

let is_empty = function
  | Bottom -> true
  | Set cs -> not (Simplex.is_feasible cs)

let sample = function
  | Bottom -> None
  | Set cs -> Simplex.feasible_point cs

let project_out xs = function
  | Bottom -> Bottom
  | Set cs -> (
    match Fourier_motzkin.eliminate_all xs cs with
    | cs -> Set cs
    | exception Fourier_motzkin.Contradiction -> Bottom)

let rename f = function
  | Bottom -> Bottom
  | Set cs -> Set (List.map (Constr.rename f) cs)

(* Box systems — every constraint bounds a single variable, as iteration
   domains with constant bounds do — are optimized without an LP.
   [box_of cs] maps each variable to its [(lower, upper)] bounds ([None]
   on an unbounded side); it is [None] when [cs] is not a box system. *)
let box_of cs =
  let boxes = Hashtbl.create 8 in
  let bounds v = Option.value (Hashtbl.find_opt boxes v) ~default:(None, None) in
  let tighter pick b = function None -> Some b | Some b0 -> Some (pick b0 b) in
  let add (c : Constr.t) =
    match Linexpr.vars c.Constr.expr with
    | [ v ] ->
      (* [a*v + k >= 0] (or [= 0]) bounds [v] by [-k/a] *)
      let a = Linexpr.coef c.Constr.expr v in
      let b = Q.neg (Q.div (Linexpr.constant c.Constr.expr) a) in
      let is_eq = c.Constr.kind = Constr.Eq in
      let lo, hi = bounds v in
      let lo = if is_eq || Q.sign a > 0 then tighter Q.max b lo else lo in
      let hi = if is_eq || Q.sign a < 0 then tighter Q.min b hi else hi in
      Hashtbl.replace boxes v (lo, hi);
      true
    | _ -> false
  in
  if List.for_all add cs then Some bounds else None

(* The simplex's answer for a single-variable objective over a box system:
   [`Empty] when any variable's box is empty, otherwise the objective at
   its variable's bound on the optimum's side, [`Unbounded] when that side
   has none.  [None] when the rule does not apply. *)
let box_optimum cs e ~maximize =
  match Linexpr.vars e with
  | [ x ] -> (
    match box_of cs with
    | None -> None
    | Some bounds ->
      let empty v =
        match bounds v with Some l, Some h -> Q.compare l h > 0 | _ -> false
      in
      if List.exists (fun c -> List.exists empty (Constr.vars c)) cs then Some `Empty
      else
        let a = Linexpr.coef e x in
        let lo, hi = bounds x in
        match if maximize = (Q.sign a > 0) then hi else lo with
        | None -> Some `Unbounded
        | Some b -> Some (`Value (Q.add (Q.mul a b) (Linexpr.constant e))))
  | _ -> None

let optimum ~maximize p e =
  match p with
  | Bottom -> `Empty
  | Set cs -> (
    match box_optimum cs e ~maximize with
    | Some r -> r
    | None -> (
      match (if maximize then Simplex.maximize else Simplex.minimize) cs e with
      | Simplex.Infeasible -> `Empty
      | Simplex.Unbounded -> `Unbounded
      | Simplex.Optimal (v, _) -> `Value v))

let minimum p e = optimum ~maximize:false p e
let maximum p e = optimum ~maximize:true p e

let mem env = function
  | Bottom -> false
  | Set cs -> List.for_all (Constr.holds env) cs

(* Sign checks of one affine form over the whole set.  These are the
   building blocks of the scheduler's sub-ILP fast path: a concrete
   candidate hyperplane is checked against each dependence relation
   directly, with at most one small LP per relation, instead of
   Farkas-expanding a symbolic form into a full coefficient tableau.
   Constant forms — the overwhelmingly common case for identity-like
   candidate rows, where the dependence distance simplifies to a literal
   number — are decided without touching the simplex at all. *)

let nonneg_on p e =
  match p with
  | Bottom -> true
  | Set cs ->
    if Linexpr.is_const e then
      Polybase.Q.sign (Linexpr.constant e) >= 0 || not (Simplex.is_feasible cs)
    else (
      match Simplex.minimize cs e with
      | Simplex.Infeasible -> true
      | Simplex.Unbounded -> false
      | Simplex.Optimal (v, _) -> Polybase.Q.sign v >= 0)

let nonpos_on p e = nonneg_on p (Linexpr.neg e)

let zero_on p e =
  match p with
  | Bottom -> true
  | Set cs ->
    if Linexpr.is_const e then
      Polybase.Q.is_zero (Linexpr.constant e) || not (Simplex.is_feasible cs)
    else nonneg_on p e && nonpos_on p e

let equal_syntactic a b =
  match (a, b) with
  | Bottom, Bottom -> true
  | Set ca, Set cb ->
    List.length ca = List.length cb && List.for_all2 Constr.equal ca cb
  | _ -> false

let pp fmt = function
  | Bottom -> Format.pp_print_string fmt "{ }"
  | Set [] -> Format.pp_print_string fmt "{ universe }"
  | Set cs ->
    Format.fprintf fmt "@[<v 2>{ %s }@]"
      (String.concat " and " (List.map Constr.to_string cs))

let to_string p = Format.asprintf "%a" pp p
