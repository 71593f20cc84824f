open Polybase
open Polyhedra

type t = {
  block_dims : (int * int) list;
  thread_dims : (int * int) list;
}

let grid_blocks m = List.fold_left (fun acc (_, e) -> acc * e) 1 m.block_dims
let block_threads m = List.fold_left (fun acc (_, e) -> acc * e) 1 m.thread_dims

let thread_extent_of m dim = List.assoc_opt dim m.thread_dims

let const_of = function
  | [ e ] when Linexpr.is_const e -> Some (Linexpr.constant e)
  | _ -> None

(* Eligible dims with their trip counts: parallel loops (vector strips
   and tile loops included), constant bounds.  A dim can appear as several
   For nodes (split nests); we keep the largest trip. *)
let eligible_dims ast =
  let table : (int, int option) Hashtbl.t = Hashtbl.create 8 in
  let note dim extent =
    match Hashtbl.find_opt table dim with
    | Some None -> ()
    | Some (Some e) ->
      Hashtbl.replace table dim
        (match extent with Some e' -> Some (max e e') | None -> None)
    | None -> Hashtbl.replace table dim extent
  in
  let rec go = function
    | Ast.Stmts l -> List.iter go l
    | Ast.If (_, b) -> go b
    | Ast.Exec _ | Ast.VecExec _ -> ()
    | Ast.For l ->
      (match l.Ast.mark with
       | Ast.Parallel -> (
         (* a parallel vector strip is mapped as a strip: one vector
            operation per thread; only the lanes are never split *)
         match (const_of l.Ast.lower, const_of l.Ast.upper) with
         | Some lo, Some hi ->
           let span = Bigint.to_int (Bigint.sub (Q.floor hi) (Q.ceil lo)) + 1 in
           let step = Ast.step l in
           note l.Ast.dim (Some ((span + step - 1) / step))
         | _ -> note l.Ast.dim l.Ast.trip_hint)
       | Ast.Seq_mark | Ast.Block _ | Ast.Thread _ | Ast.BlockThread _ ->
         note l.Ast.dim None);
      go l.Ast.body
  in
  go ast;
  Hashtbl.fold
    (fun dim extent acc -> match extent with Some e -> (dim, e) :: acc | None -> acc)
    table []
  |> List.sort compare

let max_threads = 1024  (* CUDA's per-block thread limit *)

(* Innermost dims become thread axes while the budget lasts; a dim that
   overflows the remaining budget is strip-mined across a (block, thread)
   pair — the moral equivalent of AKG's tiling before mapping; leftover
   outer dims become block axes. *)
let compute ast =
  let dims = eligible_dims ast in
  let budget = ref max_threads in
  let threads = ref [] and blocks = ref [] in
  List.iter
    (fun (dim, extent) ->
      if List.length !threads < 3 && !budget > 1 then begin
        if extent <= !budget then begin
          threads := (dim, extent) :: !threads;
          budget := !budget / extent
        end
        else if List.length !blocks < 3 then begin
          let tpart = !budget in
          let bpart = (extent + tpart - 1) / tpart in
          threads := (dim, tpart) :: !threads;
          blocks := (dim, bpart) :: !blocks;
          budget := 1
        end
      end
      else if List.length !blocks < 3 then blocks := (dim, extent) :: !blocks)
    (List.rev dims);
  (* threads gathered innermost-first means the list head must stay the
     innermost dim: threadIdx.x drives coalescing *)
  let m = { block_dims = List.rev !blocks; thread_dims = List.rev !threads } in
  (* Occupancy rebalancing: with too few blocks the GPU cannot spread work
     over its SMs, so move factors of two from large thread extents to the
     block side (the effect of AKG's tiling).  threadIdx.x (head) is halved
     last to preserve coalescing width. *)
  let target_blocks = 128 in
  let rec rebalance m =
    if grid_blocks m >= target_blocks then m
    else begin
      let candidates =
        List.filter (fun (_, e) -> e >= 64 && e mod 2 = 0) m.thread_dims
      in
      match List.rev candidates with
      | [] -> m
      | (dim, _extent) :: _ ->
        let thread_dims =
          List.map (fun (d, e) -> if d = dim then (d, e / 2) else (d, e)) m.thread_dims
        in
        let block_dims =
          if List.mem_assoc dim m.block_dims then
            List.map (fun (d, e) -> if d = dim then (d, e * 2) else (d, e)) m.block_dims
          else m.block_dims @ [ (dim, 2) ]
        in
        if List.length block_dims > 3 then m
        else rebalance { block_dims; thread_dims }
    end
  in
  rebalance m

let apply m ast =
  let axis_of dims dim =
    let rec go i = function
      | [] -> None
      | (d, _) :: _ when d = dim -> Some i
      | _ :: r -> go (i + 1) r
    in
    go 0 dims
  in
  Ast.map_loops
    (fun loop ->
      match
        (axis_of m.block_dims loop.Ast.dim, axis_of m.thread_dims loop.Ast.dim)
      with
      | Some b, Some t -> { loop with Ast.mark = Ast.BlockThread (b, t) }
      | None, Some t -> { loop with Ast.mark = Ast.Thread t }
      | Some b, None -> { loop with Ast.mark = Ast.Block b }
      | None, None -> loop)
    ast

let pp fmt m =
  let part name dims =
    Format.fprintf fmt "%s<%s>" name
      (String.concat ","
         (List.map (fun (d, e) -> Printf.sprintf "t%d:%d" d e) dims))
  in
  part "grid" m.block_dims;
  Format.pp_print_string fmt " ";
  part "block" m.thread_dims
