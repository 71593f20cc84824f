let rec map_loads f = function
  | Case.Const c -> Case.Const c
  | Case.Load a -> Case.Load (f a)
  | Case.Unop (op, e) -> Case.Unop (op, map_loads f e)
  | Case.Binop (op, l, r) -> Case.Binop (op, map_loads f l, map_loads f r)

(* immediate reductions of a right-hand side: hoist a child, or turn a
   load into a constant (killing its dependence edge) *)
let rhs_reductions = function
  | Case.Const _ -> []
  | Case.Load _ -> [ Case.Const 1.0 ]
  | Case.Unop (_, e) -> [ e ]
  | Case.Binop (_, l, r) -> [ l; r ]

(* remove one iterator: accesses mentioning it collapse to their value at
   iteration 0, which stays within bounds (the offset was already the
   domain minimum of the subscript) *)
let drop_dim (s : Case.stmt) v =
  let fix (a : Case.access) =
    { a with
      Case.index =
        List.map
          (fun (ix : Case.index) ->
            if ix.Case.iter = Some v then { Case.coef = 0; iter = None; offset = ix.offset }
            else ix)
          a.Case.index
    }
  in
  { s with
    Case.iters = List.filter (fun (u, _) -> u <> v) s.Case.iters;
    write = fix s.Case.write;
    rhs = map_loads fix s.Case.rhs
  }

let with_stmt (c : Case.t) i s =
  { c with Case.stmts = List.mapi (fun j s' -> if j = i then s else s') c.Case.stmts }

let candidates (c : Case.t) =
  let stmts = c.Case.stmts in
  let n = List.length stmts in
  let drop_stmts =
    if n <= 1 then []
    else
      List.init n (fun i ->
          Case.prune_tensors
            { c with Case.stmts = List.filteri (fun j _ -> j <> i) stmts })
  in
  let per_stmt f = List.concat (List.mapi f stmts) in
  let simplify_rhs =
    per_stmt (fun i s ->
        List.map (fun rhs -> with_stmt c i { s with Case.rhs = rhs }) (rhs_reductions s.Case.rhs))
  in
  let drop_dims =
    per_stmt (fun i s ->
        if List.length s.Case.iters <= 1 then []
        else List.map (fun (v, _) -> with_stmt c i (drop_dim s v)) s.Case.iters)
  in
  let shrink_extents =
    per_stmt (fun i s ->
        List.concat_map
          (fun (v, e) ->
            let set ext =
              with_stmt c i
                { s with
                  Case.iters = List.map (fun (u, e') -> if u = v then (u, ext) else (u, e')) s.Case.iters
                }
            in
            if e <= 1 then []
            else if e / 2 <= 1 then [ set 1 ]
            else [ set 1; set (e / 2) ])
          s.Case.iters)
  in
  let tightened = Case.tighten_tensors (Case.prune_tensors c) in
  let tighten = if Case.equal tightened c then [] else [ tightened ] in
  List.filter
    (fun c' -> not (Case.equal c' c))
    (drop_stmts @ simplify_rhs @ drop_dims @ shrink_extents @ tighten)

let max_steps = 1000

let minimize ~still_fails c =
  let valid c' = match Case.to_kernel c' with Ok _ -> true | Error _ -> false in
  let steps = ref 0 in
  let rec go c =
    if !steps >= max_steps then c
    else
      match List.find_opt (fun c' -> valid c' && still_fails c') (candidates c) with
      | Some c' ->
        incr steps;
        go c'
      | None -> c
  in
  let c' = go c in
  (c', !steps)
