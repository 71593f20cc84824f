open Polybase
open Polyhedra

type t = { tensor : string; index : Linexpr.t list }

let make tensor index =
  if index = [] then invalid_arg "Access.make: rank-0 access";
  { tensor; index }

let of_iters tensor iters = make tensor (List.map Linexpr.var iters)

let rank a = List.length a.index

let vars a =
  List.sort_uniq String.compare (List.concat_map Linexpr.vars a.index)

let rename f a = { a with index = List.map (Linexpr.rename f) a.index }

let eval env a =
  List.map
    (fun e ->
      let v = Linexpr.eval env e in
      if not (Q.is_integer v) then failwith "Access.eval: fractional index";
      Q.to_int v)
    a.index

let linear_offset tensor a =
  if Tensor.rank tensor <> rank a then
    invalid_arg "Access.linear_offset: rank mismatch";
  let strides = Tensor.strides tensor in
  List.fold_left
    (fun (acc, d) e ->
      (Linexpr.add acc (Linexpr.scale (Q.of_int strides.(d)) e), d + 1))
    (Linexpr.zero, 0) a.index
  |> fst

let pp fmt a =
  Format.fprintf fmt "%s[%s]" a.tensor
    (String.concat "][" (List.map Linexpr.to_string a.index))

let to_string a = Format.asprintf "%a" pp a
