(* The broken tiler the tiling and fuzz canaries plant: each tiling point
   loop [tT <= v <= min(upper, tT + s - 1)] loses its last point, its
   bound becoming [tT + s - 2].  Point loops are the loops with a trip
   hint and a lone tile variable as their lower bound. *)
open Polybase
open Polyhedra

let off_by_one ast =
  Codegen.Ast.map_loops
    (fun (l : Codegen.Ast.loop) ->
      match (l.lower, l.trip_hint) with
      | [ lo ], Some s -> (
        match Linexpr.vars lo with
        | [ tv ] when Linexpr.equal lo (Linexpr.var tv) ->
          let bound slack = Linexpr.add_term Q.one tv (Linexpr.const_int (s - slack)) in
          let last = bound 1 in
          { l with
            upper = List.map (fun e -> if Linexpr.equal e last then bound 2 else e) l.upper
          }
        | _ -> l)
      | _ -> l)
    ast
