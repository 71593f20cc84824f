open Polybase
open Polyhedra
open Ir

type weights = {
  w1 : float;
  w2 : float;
  w3 : float;
  w4 : float;
  w5 : float;
}

let default_weights = { w1 = 5.0; w2 = 3.0; w3 = 1.0; w4 = 1.0; w5 = 1.0 }

let stride kernel _stmt (a : Access.t) ~iter =
  let tensor = Kernel.tensor kernel a.Access.tensor in
  let offset = Access.linear_offset tensor a in
  let c = Linexpr.coef offset iter in
  if not (Q.is_integer c) then failwith "Costmodel.stride: fractional stride";
  Q.to_int c

(* [extent], when given, is [Stmt.extent stmt], possibly memoized. *)
let extent_of ?extent stmt iter =
  match extent with Some f -> f iter | None -> Stmt.extent stmt iter

let vector_width ?extent kernel stmt ~iter (a : Access.t) =
  let s = stride kernel stmt a ~iter in
  if s <> 0 && s <> 1 then 1
  else begin
    let extent = extent_of ?extent stmt iter in
    let tensor = Kernel.tensor kernel a.Access.tensor in
    let last_dim = tensor.Tensor.dims.(Tensor.rank tensor - 1) in
    let fits w =
      extent mod w = 0
      &&
      if s = 0 then true
      else begin
        (* Contiguity must go through the last tensor dimension and start
           aligned: last index exactly the iterator (plus a multiple of the
           width), and rows must preserve alignment. *)
        let last_index = List.nth a.Access.index (Access.rank a - 1) in
        let coeff = Linexpr.coef last_index iter in
        let shift = Linexpr.constant last_index in
        Q.equal coeff Q.one
        && List.length (Linexpr.vars last_index) = 1
        && Q.is_integer shift
        && Q.to_int shift mod w = 0
        && last_dim mod w = 0
      end
    in
    if fits 4 then 4 else if fits 2 then 2 else 1
  end

(* Broadcasts (stride 0) are compatible with a vector loop but gain nothing
   from it; only unit-stride accesses benefit from explicit vector types. *)
let benefits_width ?extent kernel stmt ~iter a =
  if stride kernel stmt a ~iter = 1 then vector_width ?extent kernel stmt ~iter a else 1

let stmt_vector_width ?extent kernel stmt ~iter =
  (* the loop rewrite is profitable as soon as one access (load or store)
     turns into a genuine vector access: vector and scalar types mix
     (Section V) *)
  List.fold_left
    (fun acc (a, _) -> max acc (benefits_width ?extent kernel stmt ~iter a))
    1 (Stmt.accesses stmt)

type breakdown = {
  vec_stores : int;
  vec_loads : int;
  min_stride : int;
  near_accesses : int;
  term_w1 : float;
  term_w2 : float;
  term_w3 : float;
  term_w4 : float;
  term_w5 : float;
  total : float;
}

let cost_breakdown ?(weights = default_weights) ?extent kernel stmt ~iter ~innermost
    ~thread_budget =
  let accesses = List.map fst (Stmt.accesses stmt) in
  let vw =
    if innermost && benefits_width ?extent kernel stmt ~iter stmt.Stmt.write > 1 then 1 else 0
  in
  let vr =
    if not innermost then 0
    else
      List.length
        (List.filter (fun a -> benefits_width ?extent kernel stmt ~iter a > 1) (Stmt.reads stmt))
  in
  let strides = List.map (fun a -> abs (stride kernel stmt a ~iter)) accesses in
  let m = List.fold_left min max_int strides in
  (* Stride 0 (no memory movement at all) is even better than stride 1;
     score it as half a step. *)
  let m_eff = if m = 0 then 0.5 else float_of_int m in
  (* "favors as many references as possible with short memory jumps":
     count the accesses whose stride is at most one element. *)
  let c = List.length (List.filter (fun s -> s <= 1) strides) in
  let n = extent_of ?extent stmt iter in
  (* Thread-budget contribution, normalized to [0, 1]: the literal w5*F*L/N
     of the paper explodes for small extents (L/N >> w1) and would invert
     the intended "high contribution to the number of threads" preference;
     see DESIGN.md. *)
  let f = if n < thread_budget then 1.0 else 0.0 in
  let term_w1 = weights.w1 *. float_of_int vw in
  let term_w2 = weights.w2 *. float_of_int vr in
  let term_w3 = weights.w3 /. m_eff in
  let term_w4 = weights.w4 *. float_of_int c in
  let term_w5 =
    weights.w5 *. f *. float_of_int (min n thread_budget)
    /. float_of_int (max thread_budget 1)
  in
  { vec_stores = vw;
    vec_loads = vr;
    min_stride = m;
    near_accesses = c;
    term_w1;
    term_w2;
    term_w3;
    term_w4;
    term_w5;
    total = term_w1 +. term_w2 +. term_w3 +. term_w4 +. term_w5
  }

let cost ?weights kernel stmt ~iter ~innermost ~thread_budget =
  (cost_breakdown ?weights kernel stmt ~iter ~innermost ~thread_budget).total
