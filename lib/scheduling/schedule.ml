open Polyhedra

type dim_kind =
  | Loop of { coincident : bool }
  | Scalar

type row = {
  kind : dim_kind;
  exprs : (string * Linexpr.t) list;
}

type annotation =
  | Branch of string
  | Vector of { stmt : string; iter : string; width : int }
  | Tile_sizes of (int * int) list

type t = {
  kernel_name : string;
  stmt_names : string list;
  rows : row list;
  annotations : annotation list;
}

let dims t = List.length t.rows

let expr_for t ~dim ~stmt =
  let row = List.nth t.rows dim in
  List.assoc stmt row.exprs

let sizes_to_string l =
  String.concat "," (List.map (fun (d, s) -> Printf.sprintf "%d:%d" d s) l)

let annotation_to_string = function
  | Branch label -> "influence_branch=" ^ label
  | Vector { stmt; iter; width } -> Printf.sprintf "vec#%s=%s:%d" stmt iter width
  | Tile_sizes l -> "tile_sizes=" ^ sizes_to_string l

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
   | l ->
     Format.fprintf fmt "  annotations: %s@,"
       (String.concat ", " (List.map annotation_to_string l)));
  Format.fprintf fmt "@]"

let to_string t = Format.asprintf "%a" pp t
