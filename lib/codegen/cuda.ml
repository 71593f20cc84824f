open Polybase
open Polyhedra
open Ir

let axis_name i = String.make 1 "xyz".[i]

(* A statement whose inverted schedule has rational coefficients only has
   instances where the inverse image is integral (it lives on a sublattice
   of the fused loop).  C-side this becomes a [%]-divisibility guard on the
   iterator expressions plus exact integer division in the indices. *)
let denominator e =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let lcm a b = a / gcd a b * b in
  Linexpr.fold_terms
    (fun _ c acc -> lcm acc (Bigint.to_int (Q.den c)))
    e
    (Bigint.to_int (Q.den (Linexpr.constant e)))

let int_expr_to_c e =
  (* valid C for an integral-valued affine expression; exact division when
     coefficients are rational (callers guard divisibility) *)
  let q = denominator e in
  if q = 1 then Linexpr.to_string e
  else Printf.sprintf "((%s) / %d)" (Linexpr.to_string (Linexpr.scale (Q.of_int q) e)) q

let lattice_guards sub =
  List.filter_map
    (fun (_, ex) ->
      let q = denominator ex in
      if q = 1 then None
      else
        Some
          (Printf.sprintf "(%s) %% %d == 0"
             (Linexpr.to_string (Linexpr.scale (Q.of_int q) ex))
             q))
    sub

let rec rhs_to_c iter_sub (e : Expr.t) =
  match e with
  | Expr.Const c -> Printf.sprintf "%gf" c
  | Expr.Load a -> access_to_c iter_sub a
  | Expr.Binop (op, a, b) -> (
    let sa = rhs_to_c iter_sub a and sb = rhs_to_c iter_sub b in
    match op with
    | Expr.Add -> Printf.sprintf "(%s + %s)" sa sb
    | Expr.Sub -> Printf.sprintf "(%s - %s)" sa sb
    | Expr.Mul -> Printf.sprintf "(%s * %s)" sa sb
    | Expr.Div -> Printf.sprintf "(%s / %s)" sa sb
    | Expr.Min -> Printf.sprintf "fminf(%s, %s)" sa sb
    | Expr.Max -> Printf.sprintf "fmaxf(%s, %s)" sa sb)
  | Expr.Unop (op, a) -> (
    let sa = rhs_to_c iter_sub a in
    match op with
    | Expr.Neg -> Printf.sprintf "(-%s)" sa
    | Expr.Abs -> Printf.sprintf "fabsf(%s)" sa
    | Expr.Exp -> Printf.sprintf "__expf(%s)" sa
    | Expr.Log -> Printf.sprintf "__logf(%s)" sa
    | Expr.Sqrt -> Printf.sprintf "sqrtf(%s)" sa
    | Expr.Rsqrt -> Printf.sprintf "rsqrtf(%s)" sa
    | Expr.Relu -> Printf.sprintf "fmaxf(%s, 0.f)" sa
    | Expr.Tanh -> Printf.sprintf "tanhf(%s)" sa
    | Expr.Sigmoid -> Printf.sprintf "(1.f / (1.f + __expf(-%s)))" sa)

and access_to_c iter_sub (a : Access.t) =
  let idx =
    List.map
      (fun e ->
        let e' =
          List.fold_left (fun e (v, by) -> Linexpr.subst v by e) e iter_sub
        in
        int_expr_to_c e')
      a.Access.index
  in
  Printf.sprintf "%s[%s]" a.Access.tensor (String.concat "][" idx)

let emit (c : Compile.compiled) =
  let buf = Buffer.create 1024 in
  let k = c.kernel in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let tensor_sig (t : Tensor.t) =
    Printf.sprintf "float %s%s" t.Tensor.name
      (String.concat ""
         (List.map (Printf.sprintf "[%d]") (Array.to_list t.Tensor.dims)))
  in
  add "// generated by akg-repro for %s\n" k.Kernel.name;
  add "// %s\n" (Format.asprintf "%a" Mapping.pp c.mapping);
  add "__global__ void %s(%s) {\n" k.Kernel.name
    (String.concat ", " (List.map tensor_sig k.Kernel.tensors));
  let mapped = ref [] in
  let block_axis d =
    let rec go i = function
      | [] -> None
      | (d', _) :: _ when d' = d -> Some i
      | _ :: r -> go (i + 1) r
    in
    go 0 c.mapping.Mapping.block_dims
  in
  let thread_axis d =
    let rec go i = function
      | [] -> None
      | (d', _) :: _ when d' = d -> Some i
      | _ :: r -> go (i + 1) r
    in
    go 0 c.mapping.Mapping.thread_dims
  in
  let mapped_name d step =
    let scale n = if step = 1 then n else Printf.sprintf "(%s * %d)" n step in
    match (block_axis d, thread_axis d) with
    | Some b, Some t ->
      let textent = List.assoc d c.mapping.Mapping.thread_dims in
      scale
        (Printf.sprintf "(blockIdx.%s * %d + threadIdx.%s)" (axis_name b) textent
           (axis_name t))
    | None, Some t -> scale (Printf.sprintf "threadIdx.%s" (axis_name t))
    | Some b, None -> scale (Printf.sprintf "blockIdx.%s" (axis_name b))
    | None, None -> Ast.loop_var d
  in
  (* an affine expression with each enclosing mapped loop variable renamed
     to its block/thread expression *)
  let subst e = List.fold_left (fun e (v, by) -> Linexpr.subst v (Linexpr.var by) e) e !mapped in
  let expr_to_c e = Linexpr.to_string (subst e) in
  let bound_c which exprs =
    match exprs with
    | [ e ] -> expr_to_c e
    | es -> Printf.sprintf "%s(%s)" which (String.concat ", " (List.map expr_to_c es))
  in
  (* a statement instance: its iterator map under the mapping, emitted by
     [body] inside the divisibility guards of a sublattice instance *)
  let exec pad (e : Ast.exec) body =
    let sub = List.map (fun (it, ex) -> (it, subst ex)) e.Ast.iter_map in
    let stmt = Kernel.stmt k e.Ast.stmt in
    match lattice_guards sub with
    | [] -> body pad sub stmt
    | gs ->
      add "%sif (%s) {\n" pad (String.concat " && " gs);
      body (pad ^ "  ") sub stmt;
      add "%s}\n" pad
  in
  let rec go indent ast =
    let pad = String.make indent ' ' in
    match ast with
    | Ast.Stmts l -> List.iter (go indent) l
    | Ast.If (cs, b) ->
      add "%sif (%s) {\n" pad
        (String.concat " && "
           (List.map
              (fun (cn : Constr.t) ->
                expr_to_c cn.expr
                ^ (match cn.kind with Constr.Eq -> " == 0" | Constr.Ge -> " >= 0"))
              cs));
      go (indent + 2) b;
      add "%s}\n" pad
    | Ast.For l -> (
      match (l.Ast.mark, l.Ast.kind) with
      | (Ast.BlockThread _ | Ast.Block _ | Ast.Thread _), _ ->
        let name = mapped_name l.Ast.dim (Ast.step l) in
        add "%s// %s = %s, in [%s, %s]\n" pad l.Ast.var name
          (bound_c "max" l.Ast.lower) (bound_c "min" l.Ast.upper);
        mapped := (l.Ast.var, name) :: !mapped;
        go indent l.Ast.body;
        mapped := List.tl !mapped
      | (Ast.Seq_mark | Ast.Parallel), Ast.Vector w ->
        add "%s#pragma akg vector(%d)  // explicit float%d loads/stores\n" pad w w;
        add "%sfor (int %s = %s; %s <= %s; %s += %d) {\n" pad l.Ast.var
          (bound_c "max" l.Ast.lower) l.Ast.var (bound_c "min" l.Ast.upper)
          l.Ast.var w;
        go (indent + 2) l.Ast.body;
        add "%s}\n" pad
      | (Ast.Seq_mark | Ast.Parallel), (Ast.Plain | Ast.Tile _) ->
        add "%sfor (int %s = %s; %s <= %s; %s += %d) {%s\n" pad l.Ast.var
          (bound_c "max" l.Ast.lower) l.Ast.var (bound_c "min" l.Ast.upper)
          l.Ast.var (Ast.step l)
          (if l.Ast.mark = Ast.Parallel then "  // parallel" else "");
        go (indent + 2) l.Ast.body;
        add "%s}\n" pad)
    | Ast.Exec e ->
      exec pad e (fun pad sub stmt ->
          add "%s%s = %s;\n" pad (access_to_c sub stmt.Stmt.write) (rhs_to_c sub stmt.Stmt.rhs))
    | Ast.VecExec (e, w) ->
      exec pad e (fun pad sub stmt ->
          add "%s// float%d vector load/store over %d lanes\n" pad w w;
          add "%s*(float%d*)&%s = vec%d(%s);\n" pad w (access_to_c sub stmt.Stmt.write) w
            (rhs_to_c sub stmt.Stmt.rhs))
  in
  go 2 c.ast;
  add "}\n";
  Buffer.contents buf
