open Polybase
open Polyhedra
open Ir
module Ast = Codegen.Ast
module Cuda = Codegen.Cuda

let entry_symbol = "akg_kernel"

let c_emits = Obs.Counters.create "cpu.emits" ~doc:"CPU C kernels emitted"

(* ------------------------------------------------------------------ *)
(* ISA capabilities                                                     *)
(* ------------------------------------------------------------------ *)

(* Widest f64 vector op this emitter knows how to spell for the ISA.
   AVX-512 is capped at 4: the AST's vector widths are {2,4}, so 512-bit
   spellings would never be used. *)
let isa_cap (isa : Gpusim.Machine.isa) =
  match isa with
  | Gpusim.Machine.Avx2 | Gpusim.Machine.Avx512 -> 4
  | Gpusim.Machine.Neon -> 2
  | Gpusim.Machine.Scalar_c | Gpusim.Machine.Ptx -> 1

let sanitize_ident s =
  let b = Bytes.of_string s in
  Bytes.iteri
    (fun i c ->
      let ok =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9') || c = '_'
      in
      if not ok then Bytes.set b i '_')
    b;
  let s = Bytes.to_string b in
  if s = "" || (s.[0] >= '0' && s.[0] <= '9') then "k" ^ s else s

(* Tensor parameters share a C scope with scheduler iterators (t0, t1,
   ...), and fused kernels routinely name
   temporaries [t1]/[t2] — so buffers get their own namespace. *)
let tensor_ident name = "buf_" ^ sanitize_ident name

(* ------------------------------------------------------------------ *)
(* affine expression rendering (shares Codegen.Cuda's rational story)   *)
(* ------------------------------------------------------------------ *)

(* Cuda.lattice_guards' [%]-divisibility guards and the exact integer
   division below are both safe for negatives with C's truncating
   operators: divisibility and exact quotients are sign-agnostic. *)
let int_expr_to_c e =
  let q = Cuda.denominator e in
  if q = 1 then Printf.sprintf "(%s)" (Linexpr.to_string e)
  else
    Printf.sprintf "((%s) / %d)" (Linexpr.to_string (Linexpr.scale (Q.of_int q) e)) q

let constr_to_c (cn : Constr.t) =
  (* scaling by the (positive) denominator preserves the sign, keeping the
     comparison integral *)
  let q = Cuda.denominator cn.Constr.expr in
  Printf.sprintf "(%s) %s 0"
    (Linexpr.to_string (Linexpr.scale (Q.of_int q) cn.Constr.expr))
    (match cn.Constr.kind with Constr.Eq -> "==" | Constr.Ge -> ">=")

let subst_all sub e =
  List.fold_left (fun e (v, by) -> Linexpr.subst v by e) e sub

let shift_var v k e = Linexpr.subst v (Linexpr.add (Linexpr.var v) (Linexpr.const_int k)) e

(* loop bounds: lower = max over ceil(e), upper = min over floor(e), as in
   Interp.run_ast *)
let rec nest f = function
  | [] -> assert false
  | [ x ] -> x
  | x :: rest -> Printf.sprintf "%s(%s, %s)" f x (nest f rest)

let lower_to_c exprs =
  match exprs with
  | [] -> "INT64_MIN"
  | _ ->
    nest "akg_imax"
      (List.map
         (fun e ->
           let q = Cuda.denominator e in
           if q = 1 then Printf.sprintf "(%s)" (Linexpr.to_string e)
           else
             Printf.sprintf "akg_ceildiv(%s, %d)"
               (Linexpr.to_string (Linexpr.scale (Q.of_int q) e))
               q)
         exprs)

let upper_to_c exprs =
  match exprs with
  | [] -> "INT64_MAX"
  | _ ->
    nest "akg_imin"
      (List.map
         (fun e ->
           let q = Cuda.denominator e in
           if q = 1 then Printf.sprintf "(%s)" (Linexpr.to_string e)
           else
             Printf.sprintf "akg_floordiv(%s, %d)"
               (Linexpr.to_string (Linexpr.scale (Q.of_int q) e))
               q)
         exprs)

(* ------------------------------------------------------------------ *)
(* scalar expression rendering (double precision, exactly Expr.eval)    *)
(* ------------------------------------------------------------------ *)

let float_lit c =
  if Float.is_nan c then "(0.0 / 0.0)"
  else if c = Float.infinity then "(1.0 / 0.0)"
  else if c = Float.neg_infinity then "(-1.0 / 0.0)"
  else Printf.sprintf "%h" c (* hex float literal: exact round trip *)

(* Tensors are flat [double *] parameters; a multi-dim access renders as a
   row-major flattened index so vector stores can reason about contiguity
   in the same address space the interpreter uses. *)
let flat_index k iter_sub (a : Access.t) =
  let t = Kernel.tensor k a.Access.tensor in
  let strides = Tensor.strides t in
  let parts =
    List.mapi
      (fun d e ->
        let e = subst_all iter_sub e in
        let s = strides.(d) in
        if s = 1 then int_expr_to_c e
        else Printf.sprintf "%d * %s" s (int_expr_to_c e))
      a.Access.index
  in
  String.concat " + " parts

let access_to_c k iter_sub (a : Access.t) =
  Printf.sprintf "%s[%s]" (tensor_ident a.Access.tensor) (flat_index k iter_sub a)

let rec rhs_to_c k iter_sub (e : Expr.t) =
  match e with
  | Expr.Const c -> float_lit c
  | Expr.Load a -> access_to_c k iter_sub a
  | Expr.Binop (op, a, b) -> (
    let sa = rhs_to_c k iter_sub a and sb = rhs_to_c k iter_sub b in
    match op with
    | Expr.Add -> Printf.sprintf "(%s + %s)" sa sb
    | Expr.Sub -> Printf.sprintf "(%s - %s)" sa sb
    | Expr.Mul -> Printf.sprintf "(%s * %s)" sa sb
    | Expr.Div -> Printf.sprintf "(%s / %s)" sa sb
    | Expr.Min -> Printf.sprintf "akg_min(%s, %s)" sa sb
    | Expr.Max -> Printf.sprintf "akg_max(%s, %s)" sa sb)
  | Expr.Unop (op, a) -> (
    let sa = rhs_to_c k iter_sub a in
    match op with
    | Expr.Neg -> Printf.sprintf "(-%s)" sa
    | Expr.Abs -> Printf.sprintf "fabs(%s)" sa
    | Expr.Exp -> Printf.sprintf "exp(%s)" sa
    | Expr.Log -> Printf.sprintf "log(%s)" sa
    | Expr.Sqrt -> Printf.sprintf "sqrt(%s)" sa
    | Expr.Rsqrt -> Printf.sprintf "(1.0 / sqrt(%s))" sa
    | Expr.Relu -> Printf.sprintf "akg_max(0.0, %s)" sa
    | Expr.Tanh -> Printf.sprintf "tanh(%s)" sa
    | Expr.Sigmoid -> Printf.sprintf "(1.0 / (1.0 + exp(-%s)))" sa)

(* ------------------------------------------------------------------ *)
(* vector chunk rendering                                               *)
(* ------------------------------------------------------------------ *)

(* A VecExec chunk is emitted with intrinsics only when doing so is
   bit-identical to running the lanes in order: integral iterator images
   (no lattice guards), a unit-stride write, and an rhs built from
   lane-wise IEEE-exact ops (+,-,*,/, neg, abs, sqrt, 1/sqrt — each SIMD
   instruction rounds per lane exactly like its scalar twin).  min/max
   and libm calls scalarize: their vector forms need not match OCaml's
   NaN/signed-zero or correctly-rounded behaviour. *)
let rec vectorizable_rhs (e : Expr.t) =
  match e with
  | Expr.Const _ | Expr.Load _ -> true
  | Expr.Binop ((Expr.Add | Expr.Sub | Expr.Mul | Expr.Div), a, b) ->
    vectorizable_rhs a && vectorizable_rhs b
  | Expr.Binop ((Expr.Min | Expr.Max), _, _) -> false
  | Expr.Unop ((Expr.Neg | Expr.Abs | Expr.Sqrt | Expr.Rsqrt), a) -> vectorizable_rhs a
  | Expr.Unop _ -> false

type vspell = {
  vt : string;  (* C vector type *)
  binop : string -> string -> string -> string;  (* op name, a, b *)
  vneg : string -> string;
  vabs : string -> string;
  vsqrt : string -> string;
  set1 : string -> string;
  loadu : string -> string;  (* address *)
  storeu : string -> string -> string;  (* address, value *)
  set : string list -> string;  (* lane exprs, lane 0 first *)
}

let x86_spell pre =
  { vt = (if pre = "_mm" then "__m128d" else "__m256d");
    binop = (fun op a b -> Printf.sprintf "%s_%s_pd(%s, %s)" pre op a b);
    vneg = (fun x -> Printf.sprintf "%s_xor_pd(%s, %s_set1_pd(-0.0))" pre x pre);
    vabs = (fun x -> Printf.sprintf "%s_andnot_pd(%s_set1_pd(-0.0), %s)" pre pre x);
    vsqrt = (fun x -> Printf.sprintf "%s_sqrt_pd(%s)" pre x);
    set1 = (fun x -> Printf.sprintf "%s_set1_pd(%s)" pre x);
    loadu = (fun a -> Printf.sprintf "%s_loadu_pd(%s)" pre a);
    storeu = (fun a v -> Printf.sprintf "%s_storeu_pd(%s, %s)" pre a v);
    set =
      (fun lanes ->
        (* x86 set intrinsics take lanes high-to-low *)
        Printf.sprintf "%s_set_pd(%s)" pre (String.concat ", " (List.rev lanes)))
  }

let neon_spell =
  { vt = "float64x2_t";
    binop =
      (fun op a b ->
        let n =
          match op with
          | "add" -> "vaddq_f64"
          | "sub" -> "vsubq_f64"
          | "mul" -> "vmulq_f64"
          | _ -> "vdivq_f64"
        in
        Printf.sprintf "%s(%s, %s)" n a b);
    vneg = (fun x -> Printf.sprintf "vnegq_f64(%s)" x);
    vabs = (fun x -> Printf.sprintf "vabsq_f64(%s)" x);
    vsqrt = (fun x -> Printf.sprintf "vsqrtq_f64(%s)" x);
    set1 = (fun x -> Printf.sprintf "vdupq_n_f64(%s)" x);
    loadu = (fun a -> Printf.sprintf "vld1q_f64(%s)" a);
    storeu = (fun a v -> Printf.sprintf "vst1q_f64(%s, %s)" a v);
    set = (fun lanes -> Printf.sprintf "(float64x2_t){ %s }" (String.concat ", " lanes))
  }

let spell_for (isa : Gpusim.Machine.isa) cw =
  match (isa, cw) with
  | (Gpusim.Machine.Avx2 | Gpusim.Machine.Avx512), 4 -> Some (x86_spell "_mm256")
  | (Gpusim.Machine.Avx2 | Gpusim.Machine.Avx512), 2 -> Some (x86_spell "_mm")
  | Gpusim.Machine.Neon, 2 -> Some neon_spell
  | _ -> None

(* flat stride of access [a] w.r.t. strip variable [v], when integral *)
let flat_stride k iter_sub v (a : Access.t) =
  let t = Kernel.tensor k a.Access.tensor in
  let strides = Tensor.strides t in
  let q =
    List.fold_left Q.add Q.zero
      (List.mapi
         (fun d e ->
           Q.mul (Q.of_int strides.(d)) (Linexpr.coef (subst_all iter_sub e) v))
         a.Access.index)
  in
  if Q.is_integer q then Some (Q.to_int q) else None

(* ------------------------------------------------------------------ *)
(* the emitter                                                          *)
(* ------------------------------------------------------------------ *)

let emit ?(machine = Gpusim.Machine.scalar_1core) (c : Codegen.Compile.compiled) =
  Obs.Counters.incr c_emits;
  Obs.Span.with_ "cpu.emit" @@ fun () ->
  let k = c.Codegen.Compile.kernel in
  let isa = machine.Gpusim.Machine.isa in
  let cap = isa_cap isa in
  let omp = machine.Gpusim.Machine.sm_count > 1 in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let body_name = sanitize_ident k.Kernel.name ^ "_body" in
  add "/* generated by akg-repro cpu backend\n";
  add " * kernel: %s\n" k.Kernel.name;
  add " * profile: %s (isa %s, %d cores, %d f64 lanes)\n" machine.Gpusim.Machine.name
    (Gpusim.Machine.isa_name isa) machine.Gpusim.Machine.sm_count
    (Gpusim.Machine.simd_width machine);
  add " * mapping: %s\n" (Format.asprintf "%a" Codegen.Mapping.pp c.Codegen.Compile.mapping);
  add " */\n";
  add "#include <math.h>\n";
  add "#include <stdint.h>\n";
  (match isa with
   | Gpusim.Machine.Avx2 | Gpusim.Machine.Avx512 -> add "#include <immintrin.h>\n"
   | Gpusim.Machine.Neon -> add "#include <arm_neon.h>\n"
   | _ -> ());
  add "\n";
  (* double min/max matching OCaml's Float.min/Float.max: NaN wins, and
     -0.0 sorts below +0.0 (C's fmin/fmax differ on both points) *)
  add "static inline double akg_min(double a, double b) {\n";
  add "  if (a != a) return a;\n  if (b != b) return b;\n";
  add "  if (a < b) return a;\n  if (b < a) return b;\n";
  add "  return signbit(a) ? a : b;\n}\n";
  add "static inline double akg_max(double a, double b) {\n";
  add "  if (a != a) return a;\n  if (b != b) return b;\n";
  add "  if (a < b) return b;\n  if (b < a) return a;\n";
  add "  return signbit(a) ? b : a;\n}\n";
  add "static inline int64_t akg_imin(int64_t a, int64_t b) { return a < b ? a : b; }\n";
  add "static inline int64_t akg_imax(int64_t a, int64_t b) { return a > b ? a : b; }\n";
  add "static inline int64_t akg_floordiv(int64_t n, int64_t q) {\n";
  add "  int64_t d = n / q;\n  return d * q > n ? d - 1 : d;\n}\n";
  add "static inline int64_t akg_ceildiv(int64_t n, int64_t q) {\n";
  add "  int64_t d = n / q;\n  return d * q < n ? d + 1 : d;\n}\n";
  add "\n";
  add "static void %s(%s) {\n" body_name
    (String.concat ", "
       (List.map
          (fun (t : Tensor.t) ->
            Printf.sprintf "double *restrict %s /* %s */" (tensor_ident t.Tensor.name)
              (Tensor.to_string t))
          k.Kernel.tensors));
  let fresh =
    let n = ref 0 in
    fun base -> incr n; Printf.sprintf "%s_l%d" base !n
  in
  let omp_open = ref false in
  (* scalar statement instance at the given substitution *)
  let emit_exec pad sub (e : Ast.exec) =
    let isub =
      List.map (fun (it, ex) -> (it, subst_all sub ex)) e.Ast.iter_map
    in
    let stmt = Kernel.stmt k e.Ast.stmt in
    let line pad =
      add "%s%s = %s;\n" pad
        (access_to_c k isub stmt.Stmt.write)
        (rhs_to_c k isub stmt.Stmt.rhs)
    in
    match Cuda.lattice_guards isub with
    | [] -> line pad
    | gs ->
      add "%sif (%s) {\n" pad (String.concat " && " gs);
      line (pad ^ "  ");
      add "%s}\n" pad
  in
  (* a VecExec covering [lanes] lanes of strip variable [v] *)
  let emit_vec_exec pad v lanes (e : Ast.exec) =
    let stmt = Kernel.stmt k e.Ast.stmt in
    let integral_images =
      List.for_all (fun (_, ex) -> Cuda.denominator ex = 1) e.Ast.iter_map
      && List.for_all
           (fun (a : Access.t) ->
             List.for_all
               (fun ex -> Cuda.denominator (subst_all e.Ast.iter_map ex) = 1)
               a.Access.index)
           (stmt.Stmt.write :: Expr.loads stmt.Stmt.rhs)
    in
    let write_stride = flat_stride k e.Ast.iter_map v stmt.Stmt.write in
    let clean =
      cap >= 2 && integral_images && write_stride = Some 1
      && vectorizable_rhs stmt.Stmt.rhs
    in
    if not clean then begin
      (* per-lane scalar loop: exactly Interp.run_ast's lane order, with
         the per-lane lattice guard inside *)
      if lanes = 1 then emit_exec pad [] e
      else begin
        let lv = fresh v in
        add "%sfor (int64_t %s = %s; %s <= %s + %d; ++%s) {\n" pad lv v lv v
          (lanes - 1) lv;
        emit_exec (pad ^ "  ") [ (v, Linexpr.var lv) ] e;
        add "%s}\n" pad
      end
    end
    else begin
      (* chunk the lanes by the widest spelling the ISA has *)
      let rec chunks o =
        if o >= lanes then ()
        else begin
          let cw = if lanes - o >= cap then cap else lanes - o in
          let cw = if cw >= 4 then 4 else if cw >= 2 then 2 else 1 in
          (if cw = 1 then
             (* odd tail lane: scalar instance at v + o *)
             emit_exec pad [ (v, Linexpr.add (Linexpr.var v) (Linexpr.const_int o)) ] e
           else
             match spell_for isa cw with
             | None -> assert false (* cap >= 2 guarantees a spelling *)
             | Some sp ->
               let isub o' =
                 List.map
                   (fun (it, ex) -> (it, shift_var v o' ex))
                   e.Ast.iter_map
               in
               let addr o' a = Printf.sprintf "&%s" (access_to_c k (isub o') a) in
               let rec vec (ex : Expr.t) =
                 match ex with
                 | Expr.Const cst -> sp.set1 (float_lit cst)
                 | Expr.Load a -> (
                   match flat_stride k e.Ast.iter_map v a with
                   | Some 0 -> sp.set1 (access_to_c k (isub o) a)
                   | Some 1 -> sp.loadu (addr o a)
                   | _ ->
                     sp.set
                       (List.init cw (fun l -> access_to_c k (isub (o + l)) a)))
                 | Expr.Binop (op, a, b) ->
                   let nm =
                     match op with
                     | Expr.Add -> "add"
                     | Expr.Sub -> "sub"
                     | Expr.Mul -> "mul"
                     | Expr.Div -> "div"
                     | _ -> assert false
                   in
                   sp.binop nm (vec a) (vec b)
                 | Expr.Unop (Expr.Neg, a) -> sp.vneg (vec a)
                 | Expr.Unop (Expr.Abs, a) -> sp.vabs (vec a)
                 | Expr.Unop (Expr.Sqrt, a) -> sp.vsqrt (vec a)
                 | Expr.Unop (Expr.Rsqrt, a) ->
                   sp.binop "div" (sp.set1 "1.0") (sp.vsqrt (vec a))
                 | Expr.Unop _ -> assert false
               in
               add "%s%s;  /* %d f64 lanes at %s + %d */\n" pad
                 (sp.storeu (addr o stmt.Stmt.write) (vec stmt.Stmt.rhs))
                 cw v o);
          chunks (o + cw)
        end
      in
      chunks 0
    end
  in
  let rec go indent ast =
    let pad = String.make indent ' ' in
    match ast with
    | Ast.Stmts l -> List.iter (go indent) l
    | Ast.If (cs, b) ->
      add "%sif (%s) {\n" pad (String.concat " && " (List.map constr_to_c cs));
      go (indent + 2) b;
      add "%s}\n" pad
    | Ast.Exec e -> emit_exec pad [] e
    | Ast.VecExec (e, _) ->
      (* unreachable outside a vector strip by construction (Interp.run_ast
         asserts here); emit the base instance defensively *)
      emit_exec pad [] e
    | Ast.For l ->
      let header ?(note = "") () =
        add "%sfor (int64_t %s = %s; %s <= %s; %s += %d) {%s\n" pad l.Ast.var
          (lower_to_c l.Ast.lower) l.Ast.var (upper_to_c l.Ast.upper) l.Ast.var
          (Ast.step l) note
      in
      let close () = add "%s}\n" pad in
      (match l.Ast.kind with
       | Ast.Vector w ->
         header ~note:(Printf.sprintf "  /* vector strip (w=%d) */" w) ();
         go_vec (indent + 2) l.Ast.var w l.Ast.body;
         close ()
       | Ast.Tile s ->
         (* a tile loop runs sequentially and never opens the OpenMP
            region: that is left to the point loops below it *)
         header ~note:(Printf.sprintf "  /* tile loop (size %d) */" s) ();
         go (indent + 2) l.Ast.body;
         close ()
       | Ast.Plain ->
         let parallel =
           match l.Ast.mark with
           | Ast.Parallel | Ast.Block _ | Ast.Thread _ | Ast.BlockThread _ -> true
           | Ast.Seq_mark -> false
         in
         let note = if parallel then "  /* parallel */" else "" in
         if parallel && omp && not !omp_open then begin
           add "%s#pragma omp parallel for\n" pad;
           omp_open := true;
           header ~note ();
           go (indent + 2) l.Ast.body;
           close ();
           omp_open := false
         end
         else begin
           header ~note ();
           go (indent + 2) l.Ast.body;
           close ()
         end)
  and go_vec indent v w body =
    let pad = String.make indent ' ' in
    match body with
    | Ast.Stmts l -> List.iter (go_vec indent v w) l
    | Ast.If (cs, b) ->
      (* guards evaluate at the lane-0 base value, as in the interpreter *)
      add "%sif (%s) {\n" pad (String.concat " && " (List.map constr_to_c cs));
      go_vec (indent + 2) v w b;
      add "%s}\n" pad
    | Ast.Exec e -> emit_exec pad [] e
    | Ast.VecExec (e, w') -> emit_vec_exec pad v (min w w') e
    | Ast.For _ as f -> go indent f
  in
  go 2 c.Codegen.Compile.ast;
  add "}\n\n";
  add "void %s(double **bufs) {\n" entry_symbol;
  add "  %s(%s);\n" body_name
    (String.concat ", "
       (List.mapi (fun i (_ : Tensor.t) -> Printf.sprintf "bufs[%d]" i) k.Kernel.tensors));
  add "}\n";
  Buffer.contents buf
