open Polybase
open Polyhedra

type t = {
  name : string;
  tensors : Tensor.t list;
  stmts : Stmt.t list;
  mutable digest_memo : string option;
}

let check_unique what names =
  let sorted = List.sort_uniq String.compare names in
  if List.length sorted <> List.length names then
    invalid_arg (Printf.sprintf "Kernel.make: duplicate %s" what)

let make ~name ~tensors ~stmts () =
  check_unique "tensor names" (List.map (fun (t : Tensor.t) -> t.name) tensors);
  (* the tensors laid out one after another, each padded to 256 bytes as
     the simulator places them, must fit an [int] address space *)
  let place layout t =
    let padded = Tensor.bytes t + 255 in
    if padded < 0 || layout > max_int - padded then
      invalid_arg "Kernel.make: the tensor layout overflows int";
    layout + padded
  in
  ignore (List.fold_left place 0 tensors);
  check_unique "statement names" (List.map (fun (s : Stmt.t) -> s.name) stmts);
  check_unique "iterator names" (List.concat_map (fun (s : Stmt.t) -> s.iters) stmts);
  let own_iters (s : Stmt.t) what vars =
    List.iter
      (fun v ->
        if not (List.mem v s.iters) then
          invalid_arg
            (Printf.sprintf "Kernel.make: %s of %s names %s, not one of its iterators" what
               s.name v))
      vars
  in
  let find_tensor tn = List.find_opt (fun (t : Tensor.t) -> t.name = tn) tensors in
  List.iter
    (fun (s : Stmt.t) ->
      own_iters s "the domain" (Polyhedron.vars s.domain);
      List.iter
        (fun ((a : Access.t), _) ->
          own_iters s ("an access to " ^ a.tensor) (Access.vars a);
          match find_tensor a.tensor with
          | None ->
            invalid_arg
              (Printf.sprintf "Kernel.make: %s accesses undeclared tensor %s"
                 s.name a.tensor)
          | Some t ->
            if Tensor.rank t <> Access.rank a then
              invalid_arg
                (Printf.sprintf "Kernel.make: rank mismatch on %s in %s"
                   a.tensor s.name))
        (Stmt.accesses s))
    stmts;
  { name; tensors; stmts; digest_memo = None }

let tensor k tn = List.find (fun (t : Tensor.t) -> t.name = tn) k.tensors
let stmt k sn = List.find (fun (s : Stmt.t) -> s.name = sn) k.stmts

let stmt_position k sn =
  let rec go i = function
    | [] -> raise Not_found
    | (s : Stmt.t) :: _ when s.name = sn -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 k.stmts

let validate_bounds k =
  let problems = ref [] in
  List.iter
    (fun (s : Stmt.t) ->
      List.iter
        (fun ((a : Access.t), _) ->
          let t = tensor k a.tensor in
          List.iteri
            (fun d idx ->
              let report msg =
                problems :=
                  Printf.sprintf "%s: %s dim %d %s" s.name (Access.to_string a) d msg
                  :: !problems
              in
              (match Polyhedron.minimum s.domain idx with
               | `Value v -> if Q.sign v < 0 then report "can underflow"
               | `Unbounded -> report "unbounded below"
               | `Empty -> ());
              match Polyhedron.maximum s.domain idx with
              | `Value v ->
                if Q.compare v (Q.of_int (t.dims.(d) - 1)) > 0 then report "can overflow"
              | `Unbounded -> report "unbounded above"
              | `Empty -> ())
            a.index)
        (Stmt.accesses s))
    k.stmts;
  match !problems with
  | [] -> Ok ()
  | ps -> Error (String.concat "; " (List.rev ps))

let written_tensors k =
  List.sort_uniq String.compare
    (List.map (fun (s : Stmt.t) -> s.write.Access.tensor) k.stmts)

let read_tensors k =
  List.sort_uniq String.compare
    (List.concat_map
       (fun (s : Stmt.t) -> List.map (fun (a : Access.t) -> a.tensor) (Stmt.reads s))
       k.stmts)

let inputs k =
  let written = written_tensors k in
  let read = read_tensors k in
  List.filter (fun (t : Tensor.t) -> List.mem t.name read && not (List.mem t.name written)) k.tensors

let pp fmt k =
  Format.fprintf fmt "@[<v>kernel %s@," k.name;
  List.iter (fun t -> Format.fprintf fmt "  tensor %a@," Tensor.pp t) k.tensors;
  List.iter (fun s -> Format.fprintf fmt "  %a@," Stmt.pp s) k.stmts;
  Format.fprintf fmt "@]"

(* Everything but the name, in stored order.  Strings and lists carry
   their length, rationals are exact and float constants are their bits,
   so kernels render alike only when equal in every field but the name.
   Domains racing on a first digest store the same string. *)
let digest k =
  match k.digest_memo with
  | Some d -> d
  | None ->
    let b = Buffer.create 1024 in
    let tag = Buffer.add_char b in
    let int n = Buffer.add_string b (string_of_int n); tag ';' in
    let str s = int (String.length s); Buffer.add_string b s in
    let list f l = int (List.length l); List.iter f l in
    let q x = str (Q.to_string x) in
    let linexpr e =
      Linexpr.fold_terms (fun x c () -> tag 't'; str x; q c) e ();
      tag 'c'; q (Linexpr.constant e)
    in
    let access (a : Access.t) = str a.tensor; list linexpr a.index in
    let rec expr = function
      | Expr.Const c -> tag 'k'; str (Int64.to_string (Int64.bits_of_float c))
      | Load a -> tag 'l'; access a
      | Binop (op, x, y) -> tag 'b'; str (Expr.binop_symbol op); expr x; expr y
      | Unop (op, x) -> tag 'u'; str (Expr.unop_name op); expr x
    in
    let tensor (t : Tensor.t) =
      str t.name;
      list int (Array.to_list t.dims);
      tag (match t.dtype with F16 -> 'h' | F32 -> 'f')
    in
    let constr (c : Constr.t) = tag (match c.kind with Eq -> 'E' | Ge -> 'G'); linexpr c.expr in
    let stmt (s : Stmt.t) =
      str s.name;
      list str s.iters;
      list constr (Polyhedron.constraints s.domain);
      access s.write;
      expr s.rhs
    in
    list tensor k.tensors;
    list stmt k.stmts;
    let d = Digest.to_hex (Digest.string (Buffer.contents b)) in
    k.digest_memo <- Some d;
    d

let instantiate k = k
