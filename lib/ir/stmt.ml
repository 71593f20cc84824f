open Polybase
open Polyhedra

type t = {
  name : string;
  iters : string list;
  domain : Polyhedron.t;
  write : Access.t;
  rhs : Expr.t;
}

let make ~name ~iters ~domain ~write ~rhs =
  if iters = [] then invalid_arg "Stmt.make: statements need at least one iterator";
  let sorted = List.sort_uniq String.compare iters in
  if List.length sorted <> List.length iters then
    invalid_arg "Stmt.make: duplicate iterator names";
  { name; iters; domain; write; rhs }

let dim s = List.length s.iters
let reads s = Expr.loads s.rhs
let accesses s = (s.write, `Write) :: List.map (fun a -> (a, `Read)) (reads s)

let iter_bounds s x =
  let get = function
    | `Value v ->
      if not (Q.is_integer v) then failwith "Stmt.iter_bounds: fractional bound";
      Q.to_int v
    | `Unbounded -> failwith ("Stmt.iter_bounds: unbounded iterator " ^ x)
    | `Empty -> failwith ("Stmt.iter_bounds: empty domain in " ^ s.name)
  in
  let lo = get (Polyhedron.minimum s.domain (Linexpr.var x)) in
  let hi = get (Polyhedron.maximum s.domain (Linexpr.var x)) in
  (lo, hi)

let extent s x =
  let lo, hi = iter_bounds s x in
  hi - lo + 1

let pp fmt s =
  Format.fprintf fmt "%s(%s): %a = %a  where %a" s.name
    (String.concat ", " s.iters)
    Access.pp s.write Expr.pp s.rhs Polyhedron.pp s.domain
