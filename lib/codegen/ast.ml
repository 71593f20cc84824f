open Polyhedra

type mark =
  | Seq_mark
  | Parallel
  | Vectorized of int * bool
  | Block of int
  | Thread of int
  | BlockThread of int * int

type t =
  | Stmts of t list
  | For of loop
  | If of Constr.t list * t
  | Exec of exec
  | VecExec of exec * int

and loop = {
  var : string;
  lower : Linexpr.t list;
  upper : Linexpr.t list;
  step : int;
  mark : mark;
  dim : int;
  trip_hint : int option;
  body : t;
}

and exec = {
  stmt : string;
  iter_map : (string * Linexpr.t) list;
}

let loop_var d = Printf.sprintf "t%d" d

let stmts_of t =
  let seen = ref [] in
  let rec go = function
    | Stmts l -> List.iter go l
    | For l -> go l.body
    | If (_, b) -> go b
    | Exec e | VecExec (e, _) ->
      if not (List.mem e.stmt !seen) then seen := e.stmt :: !seen
  in
  go t;
  List.rev !seen

let rec map_loops f = function
  | Stmts l -> Stmts (List.map (map_loops f) l)
  | For l ->
    let l = f l in
    For { l with body = map_loops f l.body }
  | If (cs, b) -> If (cs, map_loops f b)
  | (Exec _ | VecExec _) as e -> e

(* Tiling hoists its tile loops to [dim = row - 1000]; no other loop has a
   dimension this low. *)
let is_tile_loop l = l.dim <= -500

(* step > 1 signals a vectorized loop, except on tile loops, which step by
   the tile size *)
let rec has_vector_loop = function
  | Stmts l -> List.exists has_vector_loop l
  | If (_, b) -> has_vector_loop b
  | Exec _ -> false
  | VecExec _ -> true
  | For l -> (l.step > 1 && not (is_tile_loop l)) || has_vector_loop l.body

let rec exec_count = function
  | Stmts l -> List.fold_left (fun acc t -> acc + exec_count t) 0 l
  | For l -> exec_count l.body
  | If (_, b) -> exec_count b
  | Exec _ | VecExec _ -> 1

let mark_string = function
  | Seq_mark -> "for"
  | Parallel -> "forall"
  | Vectorized (w, par) -> Printf.sprintf "forvec<%d%s>" w (if par then ",par" else "")
  | Block a -> Printf.sprintf "forblock.%c" "xyz".[a]
  | Thread a -> Printf.sprintf "forthread.%c" "xyz".[a]
  | BlockThread (b, t) -> Printf.sprintf "forgrid.%c%c" "xyz".[b] "xyz".[t]

let bound_string which exprs =
  match exprs with
  | [ e ] -> Linexpr.to_string e
  | es ->
    Printf.sprintf "%s(%s)" which (String.concat ", " (List.map Linexpr.to_string es))

let rec pp_indented fmt indent t =
  let pad = String.make indent ' ' in
  match t with
  | Stmts l -> List.iter (pp_indented fmt indent) l
  | For l ->
    Format.fprintf fmt "%s%s (%s = %s; %s <= %s; %s += %d)@," pad (mark_string l.mark)
      l.var
      (bound_string "max" l.lower)
      l.var
      (bound_string "min" l.upper)
      l.var l.step;
    pp_indented fmt (indent + 2) l.body
  | If (cs, b) ->
    Format.fprintf fmt "%sif (%s)@," pad
      (String.concat " && " (List.map Constr.to_string cs));
    pp_indented fmt (indent + 2) b
  | Exec e ->
    Format.fprintf fmt "%s%s(%s)@," pad e.stmt
      (String.concat ", "
         (List.map (fun (i, x) -> i ^ "=" ^ Linexpr.to_string x) e.iter_map))
  | VecExec (e, w) ->
    Format.fprintf fmt "%s%s<vec%d>(%s)@," pad e.stmt w
      (String.concat ", "
         (List.map (fun (i, x) -> i ^ "=" ^ Linexpr.to_string x) e.iter_map))

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  pp_indented fmt 0 t;
  Format.fprintf fmt "@]"

let to_string t = Format.asprintf "%a" pp t
