open Polybase

type kind = Eq | Ge

type t = { expr : Linexpr.t; kind : kind }

let eq0 e = { expr = e; kind = Eq }
let ge0 e = { expr = e; kind = Ge }
let eq a b = eq0 (Linexpr.sub a b)
let geq a b = ge0 (Linexpr.sub a b)
let leq a b = ge0 (Linexpr.sub b a)
let lower_bound x n = geq (Linexpr.var x) (Linexpr.const_int n)
let upper_bound x n = leq (Linexpr.var x) (Linexpr.const_int n)

let normalize c =
  (* Scale so that all coefficients are integers with gcd 1.  For
     inequalities the scaling factor must be positive. *)
  let e = c.expr in
  let denominators =
    Linexpr.fold_terms (fun _ q acc -> Q.den q :: acc) e [ Q.den (Linexpr.constant e) ]
  in
  let l = List.fold_left Bigint.lcm Bigint.one denominators in
  let scaled = Linexpr.scale (Q.of_bigint l) e in
  let numerators =
    Linexpr.fold_terms (fun _ q acc -> Q.num q :: acc) scaled []
  in
  match numerators with
  | [] -> { c with expr = scaled }
  | _ ->
    let g = List.fold_left (fun acc n -> Bigint.gcd acc n) Bigint.zero numerators in
    if Bigint.is_zero g then { c with expr = scaled }
    else begin
      (* For equalities we can also normalize the constant's sign, but it is
         not required; only divide by the positive gcd of the variable
         coefficients when it also divides the constant, otherwise keep the
         constant rational (sound for >=; for = the set is unchanged). *)
      { c with expr = Linexpr.scale (Q.inv (Q.of_bigint g)) scaled }
    end

let triviality c =
  if Linexpr.is_const c.expr then begin
    let v = Linexpr.constant c.expr in
    match c.kind with
    | Eq -> Some (Q.is_zero v)
    | Ge -> Some (Q.sign v >= 0)
  end
  else None

let holds env c =
  let v = Linexpr.eval env c.expr in
  match c.kind with Eq -> Q.is_zero v | Ge -> Q.sign v >= 0

let vars c = Linexpr.vars c.expr
let rename f c = { c with expr = Linexpr.rename f c.expr }
let subst x e c = { c with expr = Linexpr.subst x e c.expr }

let equal a b = a.kind = b.kind && Linexpr.equal a.expr b.expr
let hash c = (Linexpr.hash c.expr * 2) + match c.kind with Eq -> 0 | Ge -> 1

let compare a b =
  match (a.kind, b.kind) with
  | Eq, Ge -> -1
  | Ge, Eq -> 1
  | Eq, Eq | Ge, Ge -> Linexpr.compare a.expr b.expr

let to_string c =
  Linexpr.to_string c.expr ^ (match c.kind with Eq -> " = 0" | Ge -> " >= 0")

let pp fmt c = Format.pp_print_string fmt (to_string c)
