open Polyhedra

let rect_from bounds =
  Polyhedron.of_constraints
    (List.concat_map
       (fun (x, lo, hi) -> [ Constr.lower_bound x lo; Constr.upper_bound x hi ])
       bounds)

let rect iters = rect_from (List.map (fun (x, n) -> (x, 0, n - 1)) iters)

let stmt name ~iters ~write ~rhs =
  Stmt.make ~name ~iters:(List.map fst iters) ~domain:(rect iters) ~write ~rhs

let access t iters = Access.of_iters t iters
let access_e t index = Access.make t index
let idx x = Linexpr.var x
let idx_plus x n = Linexpr.add (Linexpr.var x) (Linexpr.const_int n)
let tensor = Tensor.make

let kernel name ~tensors ~stmts =
  let k = Kernel.make ~name ~tensors ~stmts () in
  match Kernel.validate_bounds k with
  | Ok () -> k
  | Error msg -> invalid_arg (Printf.sprintf "Build.kernel %s: %s" name msg)
