open Polybase
open Polyhedra
open Ir

type memory = (string, float array) Hashtbl.t

let alloc (k : Kernel.t) =
  let mem = Hashtbl.create 8 in
  List.iter
    (fun (t : Tensor.t) -> Hashtbl.replace mem t.Tensor.name (Array.make (Tensor.elems t) 0.0))
    k.Kernel.tensors;
  mem

(* Edge-case pool: signed zeros and subnormals, so bit-for-bit comparison
   exercises the floats where x = -x or x +. y loses the sign bit. *)
let special_floats =
  [| -0.0; 0.0; 4.9406564584124654e-324; -4.9406564584124654e-324;
     1.0e-310; -1.0e-310 |]

let randomize ?(seed = 42) (k : Kernel.t) =
  let mem = alloc k in
  let state = ref (seed land 0x3FFFFFFF) in
  let next () =
    (* xorshift-ish deterministic generator, identical across runs *)
    state := (!state * 1103515245) + 12345 land max_int;
    float_of_int (abs !state mod 1000) /. 250.0 -. 2.0
  in
  let slot = ref 0 in
  let draw () =
    incr slot;
    if !slot mod 7 = 0 then special_floats.(!slot / 7 mod Array.length special_floats)
    else next ()
  in
  List.iter
    (fun (t : Tensor.t) ->
      let a = Hashtbl.find mem t.Tensor.name in
      Array.iteri (fun i _ -> a.(i) <- draw ()) a)
    k.Kernel.tensors;
  mem

let copy mem =
  let m = Hashtbl.create (Hashtbl.length mem) in
  Hashtbl.iter (fun k v -> Hashtbl.replace m k (Array.copy v)) mem;
  m

let equal a b =
  try
    Hashtbl.fold
      (fun k v acc ->
        let w = Hashtbl.find b k in
        acc && Array.for_all2 (fun x y -> Float.equal x y) v w)
      a true
  with Not_found -> false

let max_abs_diff a b =
  Hashtbl.fold
    (fun k v acc ->
      match Hashtbl.find_opt b k with
      | None -> infinity
      | Some w ->
        Array.fold_left max acc
          (Array.mapi (fun i x -> Float.abs (x -. w.(i))) v))
    a 0.0

(* ------------------------------------------------------------------ *)
(* shared evaluation helpers                                            *)
(* ------------------------------------------------------------------ *)

let offset_of kernel (a : Access.t) env =
  let t = Kernel.tensor kernel a.Access.tensor in
  let idx = Access.eval env a in
  let strides = Tensor.strides t in
  List.fold_left ( + ) 0 (List.mapi (fun d i -> i * strides.(d)) idx)

let exec_stmt kernel mem (s : Stmt.t) env =
  let lookup (a : Access.t) =
    (Hashtbl.find mem a.Access.tensor).(offset_of kernel a env)
  in
  let v = Expr.eval lookup s.Stmt.rhs in
  (Hashtbl.find mem s.Stmt.write.Access.tensor).(offset_of kernel s.Stmt.write env) <- v

(* ------------------------------------------------------------------ *)
(* original order                                                       *)
(* ------------------------------------------------------------------ *)

let run_original (k : Kernel.t) mem =
  List.iter
    (fun (s : Stmt.t) ->
      (* enumerate the (rectangular or not) domain lexicographically: each
         iterator ranges over its bounds in the domain restricted to the
         outer iterators' values, and once every outer iterator is fixed a
         point is tested against the restricted domain's constraints *)
      let binding : (string, Q.t) Hashtbl.t = Hashtbl.create 8 in
      let env x = try Hashtbl.find binding x with Not_found -> Q.zero in
      let rec loop iters domain =
        match iters with
        | [] -> exec_stmt k mem s env
        | it :: rest -> (
          match
            ( Polyhedron.minimum domain (Linexpr.var it),
              Polyhedron.maximum domain (Linexpr.var it) )
          with
          | `Empty, _ | _, `Empty -> ()
          | `Unbounded, _ | _, `Unbounded -> failwith "Interp: unbounded iterator"
          | `Value lo, `Value hi ->
            for v = Bigint.to_int (Q.ceil lo) to Bigint.to_int (Q.floor hi) do
              Hashtbl.replace binding it (Q.of_int v);
              if rest = [] then begin
                if Polyhedron.mem env domain then exec_stmt k mem s env
              end
              else
                loop rest
                  (Polyhedron.add_constraint domain
                     (Constr.eq (Linexpr.var it) (Linexpr.const_int v)))
            done;
            Hashtbl.remove binding it)
      in
      loop s.Stmt.iters s.Stmt.domain)
    k.Kernel.stmts

(* ------------------------------------------------------------------ *)
(* generated AST                                                        *)
(* ------------------------------------------------------------------ *)

let run_ast (k : Kernel.t) ast mem =
  let binding : (string, Q.t) Hashtbl.t = Hashtbl.create 8 in
  let env x = try Hashtbl.find binding x with Not_found -> Q.zero in
  let eval_expr e = Linexpr.eval env e in
  let eval_lower exprs =
    List.fold_left
      (fun acc e -> max acc (Bigint.to_int (Q.ceil (eval_expr e))))
      min_int exprs
  in
  let eval_upper exprs =
    List.fold_left
      (fun acc e -> min acc (Bigint.to_int (Q.floor (eval_expr e))))
      max_int exprs
  in
  let exec_instance (e : Codegen.Ast.exec) =
    let stmt = Kernel.stmt k e.Codegen.Ast.stmt in
    let vals =
      List.map (fun (it, expr) -> (it, eval_expr expr)) e.Codegen.Ast.iter_map
    in
    (* A rational iter_map entry means the statement's instances form a
       sublattice of the fused loop: loop points whose inverse image is
       fractional carry no instance of this statement. *)
    if List.for_all (fun (_, v) -> Q.is_integer v) vals then begin
      let ienv x =
        match List.assoc_opt x vals with Some v -> v | None -> env x
      in
      exec_stmt k mem stmt ienv
    end
  in
  let rec go = function
    | Codegen.Ast.Stmts l -> List.iter go l
    | Codegen.Ast.If (cs, b) -> if List.for_all (Constr.holds env) cs then go b
    | Codegen.Ast.Exec e -> exec_instance e
    | Codegen.Ast.VecExec (e, _) ->
      (* VecExec only occurs under a vector strip, which dispatches to
         [go_vec]; reaching it here would be a codegen bug *)
      ignore e;
      assert false
    | Codegen.Ast.For l ->
      let lo = eval_lower l.Codegen.Ast.lower in
      let hi = eval_upper l.Codegen.Ast.upper in
      let step = Codegen.Ast.step l in
      let v = ref lo in
      while !v <= hi do
        Hashtbl.replace binding l.Codegen.Ast.var (Q.of_int !v);
        (match l.Codegen.Ast.kind with
         | Codegen.Ast.Vector w ->
           (* execute the body once per lane, in order, re-binding the
              loop variable; guards and scalar Execs inside see the lane-0
              base value *)
           go_vec l.Codegen.Ast.var !v w l.Codegen.Ast.body
         | Codegen.Ast.Plain | Codegen.Ast.Tile _ -> go l.Codegen.Ast.body);
        v := !v + step
      done;
      Hashtbl.remove binding l.Codegen.Ast.var
  and go_vec var base w body =
    (* Vector semantics: each VecExec covers lanes base..base+w-1 executed
       in order; guarded/scalar parts evaluate at the base value. *)
    match body with
    | Codegen.Ast.Stmts l -> List.iter (go_vec var base w) l
    | Codegen.Ast.If (cs, b) ->
      Hashtbl.replace binding var (Q.of_int base);
      if List.for_all (Constr.holds env) cs then go_vec var base w b
    | Codegen.Ast.Exec e ->
      Hashtbl.replace binding var (Q.of_int base);
      exec_instance e
    | Codegen.Ast.VecExec (e, w') ->
      let lanes = min w w' in
      for lane = 0 to lanes - 1 do
        Hashtbl.replace binding var (Q.of_int (base + lane));
        exec_instance e
      done;
      Hashtbl.replace binding var (Q.of_int base)
    | Codegen.Ast.For _ as f ->
      (* no For under a vector strip by construction *)
      go f
  in
  go ast
