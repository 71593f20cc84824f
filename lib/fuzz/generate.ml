(* The generator's shape: up to 4 statements of rank up to 3, accesses
   deviating from the identity pattern with probability [skew]. *)
let max_stmts = 4
let max_rank = 3
let skew = 0.5

(* Extents mix multiples of 4 (float4-friendly), even non-multiples
   (float2) and odd values (vectorization must refuse), so generated
   kernels probe every width decision of the vectorizer. *)
let extent_pool = [ 2; 3; 4; 5; 6; 8 ]

let const_pool = [ 0.0; -0.0; 1.0; 0.5; -2.0; 3.0 ]

(* ------------------------------------------------------------------ *)
(* access patterns                                                      *)
(* ------------------------------------------------------------------ *)

(* A read of an already-declared tensor: per tensor dimension, choose a
   subscript that provably stays inside [0, dim).  The skewed variants
   are the paper's hostile patterns: broadcast (coef 0), transposed
   iterators, stencil shifts, stride-2 subsampling. *)
let read_existing rng ~iters (tname, dims) =
  let index =
    List.mapi
      (fun d dim ->
        let fitting = List.filter (fun (_, e) -> e <= dim) iters in
        let aligned =
          match List.nth_opt iters d with
          | Some (v, e) when e <= dim -> Some { Case.coef = 1; iter = Some v; offset = 0 }
          | _ -> (
            match fitting with
            | (v, _) :: _ -> Some { Case.coef = 1; iter = Some v; offset = 0 }
            | [] -> None)
        in
        let skewed () =
          let options =
            [ `Broadcast ]
            @ (if fitting <> [] then [ `Transpose ] else [])
            @ (if List.exists (fun (_, e) -> e < dim) iters then [ `Shift ] else [])
            @ if List.exists (fun (_, e) -> (2 * (e - 1)) + 1 <= dim) iters then [ `Stride ]
              else []
          in
          match Rng.pick rng options with
          | `Broadcast -> { Case.coef = 0; iter = None; offset = Rng.int rng dim }
          | `Transpose ->
            let v, _ = Rng.pick rng fitting in
            { Case.coef = 1; iter = Some v; offset = 0 }
          | `Shift ->
            let shiftable = List.filter (fun (_, e) -> e < dim) iters in
            let v, e = Rng.pick rng shiftable in
            { Case.coef = 1; iter = Some v; offset = 1 + Rng.int rng (dim - e) }
          | `Stride ->
            let stridable = List.filter (fun (_, e) -> (2 * (e - 1)) + 1 <= dim) iters in
            let v, _ = Rng.pick rng stridable in
            { Case.coef = 2; iter = Some v; offset = 0 }
        in
        if Rng.chance rng skew then skewed ()
        else
          match aligned with
          | Some ix -> ix
          | None -> { Case.coef = 0; iter = None; offset = 0 })
      dims
  in
  { Case.tensor = tname; index }

(* A read of a brand-new input tensor: choose the access pattern first,
   then derive dimensions that exactly cover it — always in bounds. *)
let read_fresh_input rng ~iters ~name =
  let rank = List.length iters in
  let q = if Rng.chance rng 0.3 then 1 + Rng.int rng rank else rank in
  let chosen =
    let shuffled = if Rng.chance rng skew then Rng.shuffle rng iters else iters in
    List.filteri (fun i _ -> i < q) shuffled
  in
  let entries =
    List.map
      (fun (v, e) ->
        if Rng.chance rng (skew *. 0.15) then
          (* broadcast dimension *)
          ({ Case.coef = 0; iter = None; offset = 0 }, 1)
        else
          let coef = if Rng.chance rng (skew *. 0.3) then 2 else 1 in
          let offset = if Rng.chance rng (skew *. 0.4) then 1 else 0 in
          ({ Case.coef; iter = Some v; offset }, (coef * (e - 1)) + offset + 1))
      chosen
  in
  let index = List.map fst entries and dims = List.map snd entries in
  ({ Case.tensor = name; index }, (name, dims))

(* ------------------------------------------------------------------ *)
(* right-hand sides                                                     *)
(* ------------------------------------------------------------------ *)

let binop_pool = [ Ir.Expr.Add; Add; Sub; Mul; Min; Max ]
let unop_pool = [ Ir.Expr.Neg; Abs; Relu ]
let acc_pool = [ Ir.Expr.Add; Add; Add; Max; Min ]

let build_rhs rng loads =
  let leaves =
    List.map (fun a -> Case.Load a) loads
    @ if Rng.chance rng 0.3 then [ Case.Const (Rng.pick rng const_pool) ] else []
  in
  let tree =
    match leaves with
    | [] -> Case.Const (Rng.pick rng const_pool)
    | first :: rest ->
      List.fold_left
        (fun acc leaf -> Case.Binop (Rng.pick rng binop_pool, acc, leaf))
        first rest
  in
  if Rng.chance rng 0.3 then Case.Unop (Rng.pick rng unop_pool, tree) else tree

(* ------------------------------------------------------------------ *)
(* kernel chains                                                        *)
(* ------------------------------------------------------------------ *)

let generate ~seed ~index () =
  let rng = Rng.make ~seed ~index in
  let rank = 1 + Rng.int rng max_rank in
  let extents = List.init rank (fun _ -> Rng.pick rng extent_pool) in
  let nstmts = 1 + Rng.int rng max_stmts in
  let input_id = ref 0 in
  let fresh_input () =
    let n = Printf.sprintf "in%d" !input_id in
    incr input_id;
    n
  in
  (* declared tensors, most recently written first (chains bias towards
     reading the latest intermediate, like real fused operators) *)
  let tensors = ref [ (fresh_input (), extents) ] in
  let declare t = tensors := t :: !tensors in
  let stmts =
    List.init nstmts (fun s ->
        let iters = List.mapi (fun d e -> (Printf.sprintf "s%di%d" s d, e)) extents in
        let reduction = rank >= 2 && Rng.chance rng 0.25 in
        let write =
          if reduction then begin
            let out = List.filteri (fun d _ -> d < rank - 1) iters in
            let name = Printf.sprintf "t%d" s in
            declare (name, List.map snd out);
            { Case.tensor = name;
              index = List.map (fun (v, _) -> { Case.coef = 1; iter = Some v; offset = 0 }) out
            }
          end
          else
            let in_place =
              if Rng.chance rng 0.15 then
                List.find_opt (fun (_, dims) -> dims = extents) !tensors
              else None
            in
            let name =
              match in_place with
              | Some (n, _) -> n
              | None ->
                let n = Printf.sprintf "t%d" s in
                declare (n, extents);
                n
            in
            { Case.tensor = name;
              index = List.map (fun (v, _) -> { Case.coef = 1; iter = Some v; offset = 0 }) iters
            }
        in
        let nreads = 1 + Rng.int rng 2 in
        let reads =
          List.init nreads (fun _ ->
              let existing =
                List.filter (fun (n, _) -> n <> write.Case.tensor) !tensors
              in
              if existing <> [] && Rng.chance rng 0.75 then
                let src =
                  if Rng.chance rng 0.6 then List.hd existing else Rng.pick rng existing
                in
                read_existing rng ~iters src
              else begin
                let a, t = read_fresh_input rng ~iters ~name:(fresh_input ()) in
                declare t;
                a
              end)
        in
        let body = build_rhs rng reads in
        let rhs =
          if reduction then Case.Binop (Rng.pick rng acc_pool, Case.Load write, body)
          else body
        in
        { Case.sname = Printf.sprintf "S%d" s; iters; write; rhs })
  in
  (* declaration order: oldest first, like hand-written kernels *)
  { Case.name = Printf.sprintf "fuzz_%d_%d" seed index;
    tensors = List.rev !tensors;
    stmts
  }
