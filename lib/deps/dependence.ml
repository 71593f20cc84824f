open Polyhedra

type kind = Flow | Anti | Output

type t = {
  kind : kind;
  tensor : string;
  source : string;
  target : string;
  src_iters : string list;
  tgt_iters : string list;
  rel : Polyhedron.t;
  depth : int;
}

let target_suffix = "'"
let rename_target x = x ^ target_suffix

let kind_to_string = function
  | Flow -> "flow"
  | Anti -> "anti"
  | Output -> "output"

let pp fmt d =
  Format.fprintf fmt "%s dep on %s: %s(%s) -> %s(%s) @@depth %d: %a"
    (kind_to_string d.kind) d.tensor d.source
    (String.concat "," d.src_iters)
    d.target
    (String.concat "," d.tgt_iters)
    d.depth Polyhedron.pp d.rel

let to_string d = Format.asprintf "%a" pp d
