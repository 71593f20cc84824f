open Polybase
open Polyhedra

type t = {
  name : string;
  tensors : Tensor.t list;
  stmts : Stmt.t list;
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
  { name; tensors; stmts }

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

let to_string k = Format.asprintf "%a" pp k

let instantiate k = k
