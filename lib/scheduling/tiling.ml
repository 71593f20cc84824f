open Polybase
open Polyhedra
open Ir

type model = {
  shared_mem_bytes : int;
  max_tile_size : int;
  elem_bytes : int;
  halo : int;
}

let default_model =
  { shared_mem_bytes = 48 * 1024; max_tile_size = 32; elem_bytes = 4; halo = 2 }

(* ------------------------------------------------------------------ *)
(* band selection                                                      *)
(* ------------------------------------------------------------------ *)

let band_depth (kernel : Kernel.t) deps =
  let min_dims =
    List.fold_left (fun acc s -> min acc (Stmt.dim s)) max_int kernel.Kernel.stmts
  in
  if min_dims = max_int || min_dims = 0 then 0
  else begin
    (* Dimension [d] keeps the band permutable iff every dependence moves
       forward (or not at all) along it: non-negative
       distance without any outer-equality context, the componentwise
       condition of Pluto-style rectangular tiling. *)
    let forward_at d =
      List.for_all
        (fun (dep : Deps.Dependence.t) ->
          match (List.nth_opt dep.src_iters d, List.nth_opt dep.tgt_iters d) with
          | Some si, Some ti ->
            let delta = Linexpr.add_term (Q.neg Q.one) si (Linexpr.var ti) in
            (match Polyhedron.minimum dep.rel delta with
             | `Empty -> true
             | `Value v -> Q.sign v >= 0
             | `Unbounded -> false)
          | _ -> false)
        deps
    in
    let rec grow d = if d >= min_dims || not (forward_at d) then d else grow (d + 1) in
    grow 0
  end

(* ------------------------------------------------------------------ *)
(* tile-shape selection from the machine model                          *)
(* ------------------------------------------------------------------ *)

let rec pow2_below n v = if v * 2 > n then v else pow2_below n (v * 2)

let choose_sizes model (kernel : Kernel.t) k =
  let extent d =
    List.fold_left
      (fun acc (s : Stmt.t) ->
        match List.nth_opt s.Stmt.iters d with
        | Some it -> min acc (Stmt.extent s it)
        | None -> acc)
      max_int kernel.Kernel.stmts
  in
  let sizes =
    Array.init k (fun d ->
        let e = extent d in
        if e = max_int || e < 4 then 0
        else min (pow2_below (e / 2) 1) model.max_tile_size)
  in
  (* Shrink (largest dimension first) until one tile's working set —
     every tensor staged once, with halo — fits the per-block budget. *)
  let ntensors = max 1 (List.length kernel.Kernel.tensors) in
  let footprint () =
    let tile_elems =
      Array.fold_left
        (fun acc s -> if s > 1 then acc * (s + model.halo) else acc)
        1 sizes
    in
    tile_elems * model.elem_bytes * ntensors
  in
  let largest () =
    let best = ref (-1) in
    Array.iteri (fun d s -> if s > 2 && (!best < 0 || s > sizes.(!best)) then best := d) sizes;
    !best
  in
  let rec shrink () =
    if footprint () > model.shared_mem_bytes then begin
      match largest () with
      | -1 -> ()
      | d ->
        sizes.(d) <- sizes.(d) / 2;
        shrink ()
    end
  in
  shrink ();
  List.filter_map
    (fun d -> if sizes.(d) > 1 then Some (d, sizes.(d)) else None)
    (List.init k Fun.id)

(* ------------------------------------------------------------------ *)
(* influence-tree construction                                          *)
(* ------------------------------------------------------------------ *)

(* One branch: pin every statement's identity row on the band's first
   [band] dimensions, with the tile shape deposited at the leaf. *)
let branch ~label kernel ~band ~sizes =
  let at d =
    if d >= band then []
    else
      List.concat_map
        (fun (s : Stmt.t) ->
          match List.nth_opt s.Stmt.iters d with
          | Some iter ->
            Influence.pin_row ~stmt:s.Stmt.name ~dim:d ~iter ~all_iters:s.Stmt.iters
          | None -> [])
        kernel.Kernel.stmts
  in
  Influence.chain ~label ~payload:[ Schedule.Branch label; Schedule.Tile_sizes sizes ]
    kernel at

let c_trees = Obs.Counters.create "tiling.trees_built" ~doc:"tiling influence trees generated"

let c_bands =
  Obs.Counters.create "tiling.bands_selected" ~doc:"tilable bands found (depth >= 2)"

let c_rejects =
  Obs.Counters.create "tiling.bands_rejected"
    ~doc:"kernels with no tilable band (backward dependences or too shallow)"

let influence_for (kernel : Kernel.t) =
  Obs.Span.with_ "tiling.treegen" @@ fun () ->
  Obs.Counters.incr c_trees;
  let k = band_depth kernel (Deps.Analysis.dependences kernel) in
  let sizes = if k >= 2 then choose_sizes default_model kernel k else [] in
  let tree =
    if sizes = [] then Influence.empty
    else begin
      let full = branch ~label:(Printf.sprintf "tile-band%d" k) kernel ~band:k ~sizes in
      if k > 2 then
        let sizes2 = List.filter (fun (d, _) -> d < 2) sizes in
        if sizes2 = [] then [ full ]
        else [ full; branch ~label:"tile-band2" kernel ~band:2 ~sizes:sizes2 ]
      else [ full ]
    end
  in
  if tree = Influence.empty then Obs.Counters.incr c_rejects
  else Obs.Counters.incr c_bands;
  Obs.Trace.emitf "tiling.tree" (fun () ->
      [ ("kernel", Obs.Json.String kernel.Kernel.name);
        ("band_depth", Obs.Json.Int k);
        ("sizes", Obs.Json.String (Schedule.sizes_to_string sizes));
        ("branches", Obs.Json.Int (List.length tree));
        ( "labels",
          Obs.Json.List
            (List.map (fun (n : Influence.node) -> Obs.Json.String n.Influence.label) tree)
        )
      ]);
  tree
