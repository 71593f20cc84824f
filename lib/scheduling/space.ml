type coeff =
  | Iter of string
  | Const

(* '#' cannot occur in statement/iterator identifiers, which keeps the
   encoding unambiguous. *)
let coef_var ~stmt ~dim coeff =
  let what =
    match coeff with
    | Iter x -> "it:" ^ x
    | Const -> "cst"
  in
  Printf.sprintf "c#%s#%d#%s" stmt dim what

let bound_w = "w#"

let parse_coef_var v =
  match String.split_on_char '#' v with
  | [ "c"; stmt; dim; what ] -> (
    match int_of_string_opt dim with
    | None -> None
    | Some d -> (
      match String.index_opt what ':' with
      | None -> if what = "cst" then Some (stmt, d, Const) else None
      | Some i ->
        let kind = String.sub what 0 i in
        let name = String.sub what (i + 1) (String.length what - i - 1) in
        if kind = "it" then Some (stmt, d, Iter name) else None))
  | _ -> None
