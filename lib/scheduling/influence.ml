open Polyhedra

type node = {
  label : string;
  constrs : Constr.t list;
  require_parallel : bool;
  payload : Schedule.annotation list;
  children : node list;
}

type t = node list

let node ?(label = "") ?(require_parallel = false) ?(payload = []) ?(children = []) constrs =
  { label; constrs; require_parallel; payload; children }

let empty = []

let coef ~stmt ~dim iter = Linexpr.var (Space.coef_var ~stmt ~dim (Space.Iter iter))

let pin_row ~stmt ~dim ~iter ~all_iters =
  Constr.eq (coef ~stmt ~dim iter) (Linexpr.const_int 1)
  :: List.filter_map
       (fun it -> if it = iter then None else Some (Constr.eq0 (coef ~stmt ~dim it)))
       all_iters

let chain ~label ~payload (kernel : Ir.Kernel.t) at =
  let depth =
    List.fold_left (fun acc s -> max acc (Ir.Stmt.dim s)) 1 kernel.Ir.Kernel.stmts
  in
  let rec go d =
    if d = depth - 1 then node ~label:(label ^ "@leaf") ~payload (at d)
    else node ~label:(Printf.sprintf "%s@%d" label d) ~children:[ go (d + 1) ] (at d)
  in
  go 0

let rec node_depth n =
  1 + List.fold_left (fun acc c -> max acc (node_depth c)) 0 n.children

let depth t = List.fold_left (fun acc n -> max acc (node_depth n)) 0 t

let rec node_size n = 1 + List.fold_left (fun acc c -> acc + node_size c) 0 n.children

let size t = List.fold_left (fun acc n -> acc + node_size n) 0 t

let select order t =
  let n = List.length t in
  let _, picked =
    List.fold_left
      (fun (seen, acc) i ->
        if i < 0 || i >= n || List.mem i seen then (seen, acc)
        else (i :: seen, List.nth t i :: acc))
      ([], []) order
  in
  List.rev picked

let rec node_leaves n =
  match n.children with
  | [] -> [ n ]
  | cs -> List.concat_map node_leaves cs

let leaves t = List.concat_map node_leaves t

let pp fmt t =
  let rec pp_node prefix fmt n =
    let label = if n.label = "" then "node" else n.label in
    Format.fprintf fmt "%s%s%s%s@,"
      prefix label
      (if n.require_parallel then " [parallel]" else "")
      (match n.constrs with
       | [] -> " {no constraints}"
       | cs -> " { " ^ String.concat " ; " (List.map Constr.to_string cs) ^ " }");
    List.iter (fun c -> pp_node (prefix ^ "  ") fmt c) n.children
  in
  Format.fprintf fmt "@[<v>";
  List.iteri
    (fun i n ->
      Format.fprintf fmt "branch %d (priority %d):@," i i;
      pp_node "  " fmt n)
    t;
  Format.fprintf fmt "@]"

let to_string t = Format.asprintf "%a" pp t
