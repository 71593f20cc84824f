open Polyhedra

type dim_kind =
  | Loop of { coincident : bool }
  | Scalar

type row = {
  kind : dim_kind;
  exprs : (string * Linexpr.t) list;
}

type t = {
  kernel_name : string;
  stmt_names : string list;
  rows : row list;
  annotations : (string * string) list;
}

let dims t = List.length t.rows

let expr_for t ~dim ~stmt =
  let row = List.nth t.rows dim in
  List.assoc stmt row.exprs

let date t ~stmt env =
  List.map (fun row -> Linexpr.eval env (List.assoc stmt row.exprs)) t.rows

let annotation t key = List.assoc_opt key t.annotations

let kind_string = function
  | Loop { coincident = true } -> "loop(parallel)"
  | Loop { coincident = false } -> "loop"
  | Scalar -> "scalar"

let pp fmt t =
  Format.fprintf fmt "@[<v>schedule of %s:@," t.kernel_name;
  List.iteri
    (fun d row ->
      Format.fprintf fmt "  dim %d [%s]: %s@," d (kind_string row.kind)
        (String.concat "  "
           (List.map
              (fun (s, e) -> Printf.sprintf "%s: %s" s (Linexpr.to_string e))
              row.exprs)))
    t.rows;
  (match t.annotations with
   | [] -> ()
   | kvs ->
     Format.fprintf fmt "  annotations: %s@,"
       (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)));
  Format.fprintf fmt "@]"

let to_string t = Format.asprintf "%a" pp t
