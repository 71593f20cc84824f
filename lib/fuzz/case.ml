open Polyhedra

type index = { coef : int; iter : string option; offset : int }
type access = { tensor : string; index : index list }

type expr =
  | Const of float
  | Load of access
  | Unop of Ir.Expr.unop * expr
  | Binop of Ir.Expr.binop * expr * expr

type stmt = {
  sname : string;
  iters : (string * int) list;
  write : access;
  rhs : expr;
}

type t = {
  name : string;
  tensors : (string * int list) list;
  stmts : stmt list;
}

let equal a b = compare a b = 0

let rec loads = function
  | Const _ -> []
  | Load a -> [ a ]
  | Unop (_, e) -> loads e
  | Binop (_, l, r) -> loads l @ loads r

let accesses s = s.write :: loads s.rhs

let used_tensors c =
  let used =
    List.concat_map (fun s -> List.map (fun (a : access) -> a.tensor) (accesses s)) c.stmts
  in
  List.filter (fun (n, _) -> List.mem n used) c.tensors |> List.map fst

let prune_tensors c =
  let used = used_tensors c in
  { c with tensors = List.filter (fun (n, _) -> List.mem n used) c.tensors }

(* Inclusive (min, max) of [coef*iter + offset] over the statement's
   domain; constants when the subscript mentions no iterator. *)
let index_range (s : stmt) (ix : index) =
  match ix.iter with
  | None -> (ix.offset, ix.offset)
  | Some v -> (
    match List.assoc_opt v s.iters with
    | None -> (ix.offset, ix.offset)
    | Some ext ->
      let a = ix.offset and b = (ix.coef * (ext - 1)) + ix.offset in
      (min a b, max a b))

let tighten_tensors c =
  let needed = Hashtbl.create 8 in
  List.iter
    (fun s ->
      List.iter
        (fun (a : access) ->
          List.iteri
            (fun d ix ->
              let _, hi = index_range s ix in
              let key = (a.tensor, d) in
              let cur = try Hashtbl.find needed key with Not_found -> 0 in
              Hashtbl.replace needed key (max cur (hi + 1)))
            a.index)
        (accesses s))
    c.stmts;
  let tighten name dims =
    List.mapi
      (fun d old ->
        match Hashtbl.find_opt needed (name, d) with
        | Some n when n >= 1 && n < old -> n
        | _ -> old)
      dims
  in
  { c with tensors = List.map (fun (n, dims) -> (n, tighten n dims)) c.tensors }

(* ------------------------------------------------------------------ *)
(* IR construction                                                      *)
(* ------------------------------------------------------------------ *)

let linexpr_of_index (ix : index) =
  match ix.iter with
  | None -> Linexpr.const_int ix.offset
  | Some v -> Linexpr.add_term (Polybase.Q.of_int ix.coef) v (Linexpr.const_int ix.offset)

let ir_access (a : access) =
  Ir.Access.make a.tensor (List.map linexpr_of_index a.index)

let rec ir_expr = function
  | Const f -> Ir.Expr.const f
  | Load a -> Ir.Expr.load (ir_access a)
  | Unop (op, e) -> Ir.Expr.Unop (op, ir_expr e)
  | Binop (op, l, r) -> Ir.Expr.Binop (op, ir_expr l, ir_expr r)

let to_kernel c =
  try
    List.iter
      (fun s ->
        List.iter
          (fun (v, e) ->
            if e < 1 then
              invalid_arg
                (Printf.sprintf "Case.to_kernel: non-positive extent %d of %s in %s" e v s.sname))
          s.iters)
      c.stmts;
    let tensors = List.map (fun (n, dims) -> Ir.Build.tensor n dims) c.tensors in
    let stmts =
      List.map
        (fun s ->
          Ir.Build.stmt s.sname ~iters:s.iters ~write:(ir_access s.write)
            ~rhs:(ir_expr s.rhs))
        c.stmts
    in
    Ok (Ir.Build.kernel c.name ~tensors ~stmts)
  with Invalid_argument msg | Failure msg -> Error msg

(* ------------------------------------------------------------------ *)
(* JSON                                                                 *)
(* ------------------------------------------------------------------ *)

module J = Obs.Json

let unop_names =
  [ (Ir.Expr.Neg, "neg"); (Abs, "abs"); (Exp, "exp"); (Log, "log"); (Sqrt, "sqrt");
    (Rsqrt, "rsqrt"); (Relu, "relu"); (Tanh, "tanh"); (Sigmoid, "sigmoid")
  ]

let binop_names =
  [ (Ir.Expr.Add, "add"); (Sub, "sub"); (Mul, "mul"); (Div, "div"); (Min, "min");
    (Max, "max")
  ]

let rev_assoc l s = List.find_opt (fun (_, n) -> n = s) l |> Option.map fst

let index_to_json (ix : index) =
  J.Assoc
    (("coef", J.Int ix.coef)
     ::
     (match ix.iter with Some v -> [ ("iter", J.String v) ] | None -> [])
     @ [ ("offset", J.Int ix.offset) ])

let access_to_json (a : access) =
  J.Assoc
    [ ("tensor", J.String a.tensor); ("index", J.List (List.map index_to_json a.index)) ]

let rec expr_to_json = function
  | Const f -> J.Assoc [ ("const", J.Float f) ]
  | Load a -> J.Assoc [ ("load", access_to_json a) ]
  | Unop (op, e) ->
    J.Assoc [ ("unop", J.String (List.assoc op unop_names)); ("arg", expr_to_json e) ]
  | Binop (op, l, r) ->
    J.Assoc
      [ ("binop", J.String (List.assoc op binop_names)); ("lhs", expr_to_json l);
        ("rhs", expr_to_json r)
      ]

let to_json c =
  J.Assoc
    [ ("name", J.String c.name);
      ("tensors",
       J.List
         (List.map
            (fun (n, dims) ->
              J.Assoc
                [ ("name", J.String n); ("dims", J.List (List.map (fun d -> J.Int d) dims)) ])
            c.tensors));
      ("stmts",
       J.List
         (List.map
            (fun s ->
              J.Assoc
                [ ("name", J.String s.sname);
                  ("iters",
                   J.List
                     (List.map
                        (fun (v, e) -> J.Assoc [ ("iter", J.String v); ("extent", J.Int e) ])
                        s.iters));
                  ("write", access_to_json s.write);
                  ("rhs", expr_to_json s.rhs)
                ])
            c.stmts))
    ]

(* parsing: a small result monad over the member accessors *)
let ( let* ) r f = Result.bind r f

let str_field k j =
  match J.member k j with
  | Some (J.String s) -> Ok s
  | _ -> Error (Printf.sprintf "missing string field %S" k)

let int_field k j =
  match J.member k j with
  | Some (J.Int i) -> Ok i
  | _ -> Error (Printf.sprintf "missing int field %S" k)

let list_field k j =
  match J.member k j with
  | Some (J.List l) -> Ok l
  | _ -> Error (Printf.sprintf "missing list field %S" k)

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Ok (y :: ys)

let index_of_json j =
  let* coef = int_field "coef" j in
  let* offset = int_field "offset" j in
  let iter = match J.member "iter" j with Some (J.String s) -> Some s | _ -> None in
  Ok { coef; iter; offset }

let access_of_json j =
  let* tensor = str_field "tensor" j in
  let* ixs = list_field "index" j in
  let* index = map_result index_of_json ixs in
  Ok { tensor; index }

let rec expr_of_json j =
  match (J.member "const" j, J.member "load" j, J.member "unop" j, J.member "binop" j) with
  | Some (J.Float f), _, _, _ -> Ok (Const f)
  | Some (J.Int i), _, _, _ -> Ok (Const (float_of_int i))
  | _, Some a, _, _ ->
    let* a = access_of_json a in
    Ok (Load a)
  | _, _, Some (J.String op), _ -> (
    match rev_assoc unop_names op with
    | None -> Error (Printf.sprintf "unknown unop %S" op)
    | Some op ->
      let* arg =
        match J.member "arg" j with Some a -> expr_of_json a | None -> Error "unop without arg"
      in
      Ok (Unop (op, arg)))
  | _, _, _, Some (J.String op) -> (
    match rev_assoc binop_names op with
    | None -> Error (Printf.sprintf "unknown binop %S" op)
    | Some op ->
      let* lhs =
        match J.member "lhs" j with Some a -> expr_of_json a | None -> Error "binop without lhs"
      in
      let* rhs =
        match J.member "rhs" j with Some a -> expr_of_json a | None -> Error "binop without rhs"
      in
      Ok (Binop (op, lhs, rhs)))
  | _ -> Error ("unrecognized expression " ^ J.to_string j)

let stmt_of_json j =
  let* sname = str_field "name" j in
  let* iters = list_field "iters" j in
  let* iters =
    map_result
      (fun ij ->
        let* v = str_field "iter" ij in
        let* e = int_field "extent" ij in
        Ok (v, e))
      iters
  in
  let* write =
    match J.member "write" j with Some w -> access_of_json w | None -> Error "stmt without write"
  in
  let* rhs =
    match J.member "rhs" j with Some r -> expr_of_json r | None -> Error "stmt without rhs"
  in
  Ok { sname; iters; write; rhs }

let of_json j =
  let* name = str_field "name" j in
  let* tensors = list_field "tensors" j in
  let* tensors =
    map_result
      (fun tj ->
        let* n = str_field "name" tj in
        let* dims = list_field "dims" tj in
        let* dims =
          map_result (function J.Int d -> Ok d | _ -> Error "non-integer dim") dims
        in
        Ok (n, dims))
      tensors
  in
  let* stmts = list_field "stmts" j in
  let* stmts = map_result stmt_of_json stmts in
  Ok { name; tensors; stmts }

let pp ppf c =
  Format.fprintf ppf "%s: %d stmts, tensors" c.name (List.length c.stmts);
  List.iter
    (fun (n, dims) ->
      Format.fprintf ppf " %s[%s]" n (String.concat "x" (List.map string_of_int dims)))
    c.tensors;
  List.iter
    (fun s ->
      Format.fprintf ppf "; %s(%s)" s.sname
        (String.concat "," (List.map (fun (v, e) -> Printf.sprintf "%s<%d" v e) s.iters)))
    c.stmts
