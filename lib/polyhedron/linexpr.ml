open Polybase
module Smap = Map.Make (String)

type t = { terms : Q.t Smap.t; constant : Q.t }

let normalize_terms terms = Smap.filter (fun _ c -> not (Q.is_zero c)) terms

let zero = { terms = Smap.empty; constant = Q.zero }
let const c = { terms = Smap.empty; constant = c }
let const_int n = const (Q.of_int n)

let var ?(coef = Q.one) x =
  if Q.is_zero coef then zero else { terms = Smap.singleton x coef; constant = Q.zero }

let add_term c x t =
  let cur = Option.value ~default:Q.zero (Smap.find_opt x t.terms) in
  let c' = Q.add cur c in
  let terms =
    if Q.is_zero c' then Smap.remove x t.terms else Smap.add x c' t.terms
  in
  { t with terms }

let of_terms l c0 =
  List.fold_left (fun acc (c, x) -> add_term c x acc) (const c0) l

let of_int_terms l c0 =
  of_terms (List.map (fun (c, x) -> (Q.of_int c, x)) l) (Q.of_int c0)

let coef t x = Option.value ~default:Q.zero (Smap.find_opt x t.terms)
let constant t = t.constant
let vars t = List.map fst (Smap.bindings t.terms)
let fold_terms f t acc = Smap.fold f t.terms acc

let add a b =
  { terms = normalize_terms (Smap.union (fun _ x y -> Some (Q.add x y)) a.terms b.terms);
    constant = Q.add a.constant b.constant
  }

let neg a = { terms = Smap.map Q.neg a.terms; constant = Q.neg a.constant }
let sub a b = add a (neg b)

let scale k a =
  if Q.is_zero k then zero
  else { terms = Smap.map (Q.mul k) a.terms; constant = Q.mul k a.constant }

let subst x e t =
  match Smap.find_opt x t.terms with
  | None -> t
  | Some c -> add { t with terms = Smap.remove x t.terms } (scale c e)

let rename f t =
  let terms =
    Smap.fold
      (fun x c acc ->
        let x' = f x in
        if Smap.mem x' acc then invalid_arg "Linexpr.rename: not injective";
        Smap.add x' c acc)
      t.terms Smap.empty
  in
  { t with terms }

let eval env t =
  Smap.fold (fun x c acc -> Q.add acc (Q.mul c (env x))) t.terms t.constant

let is_const t = Smap.is_empty t.terms
let equal a b = Smap.equal Q.equal a.terms b.terms && Q.equal a.constant b.constant

(* Structural, over the sorted terms and the constant, so equal
   expressions hash alike; no printing. *)
let hash t =
  Smap.fold
    (fun x c h -> (((h * 65599) + Hashtbl.hash x) * 65599) + Q.hash c)
    t.terms (Q.hash t.constant)

let compare a b =
  let c = Q.compare a.constant b.constant in
  if c <> 0 then c else Smap.compare Q.compare a.terms b.terms

let to_string t =
  let term_strings =
    Smap.fold
      (fun x c acc ->
        let s =
          if Q.equal c Q.one then x
          else if Q.equal c Q.minus_one then "-" ^ x
          else Q.to_string c ^ "*" ^ x
        in
        s :: acc)
      t.terms []
  in
  let term_strings = List.rev term_strings in
  let parts =
    if Q.is_zero t.constant && term_strings <> [] then term_strings
    else term_strings @ [ Q.to_string t.constant ]
  in
  match parts with
  | [] -> "0"
  | first :: rest ->
    List.fold_left
      (fun acc s ->
        if String.length s > 0 && s.[0] = '-' then acc ^ " - " ^ String.sub s 1 (String.length s - 1)
        else acc ^ " + " ^ s)
      first rest

let pp fmt t = Format.pp_print_string fmt (to_string t)
