open Ir

type t = {
  stmt : string;
  dims : string list;
  vector_iter : string option;
  vector_width : int;
  score : float;
}

(* Candidates for one position, best first.  [innermost] switches the
   vectorization terms of the cost on. *)
let ranked_candidates ?weights ~extent kernel stmt ~taken ~innermost ~thread_budget =
  let free = List.filter (fun it -> not (List.mem it taken)) stmt.Stmt.iters in
  let scored =
    List.map
      (fun it ->
        let b =
          Costmodel.cost_breakdown ?weights ~extent kernel stmt ~iter:it ~innermost ~thread_budget
        in
        Obs.Trace.emitf "vectorizer.rank" (fun () ->
            [ ("stmt", Obs.Json.String stmt.Stmt.name);
              ("iter", Obs.Json.String it);
              ("innermost", Obs.Json.Bool innermost);
              ("thread_budget", Obs.Json.Int thread_budget);
              ("w1", Obs.Json.Float b.Costmodel.term_w1);
              ("w2", Obs.Json.Float b.Costmodel.term_w2);
              ("w3", Obs.Json.Float b.Costmodel.term_w3);
              ("w4", Obs.Json.Float b.Costmodel.term_w4);
              ("w5", Obs.Json.Float b.Costmodel.term_w5);
              ("min_stride", Obs.Json.Int b.Costmodel.min_stride);
              ("score", Obs.Json.Float b.Costmodel.total)
            ]);
        (it, b.Costmodel.total))
      free
  in
  (* stable sort: ties keep original (outer-to-inner) iterator order, and we
     prefer the LATER original iterator on ties for the innermost slot so a
     tie between the natural innermost and an outer dim keeps the loop
     structure intact *)
  List.stable_sort (fun (_, a) (_, b) -> compare b a) scored

(* Algorithm 2's constants: a 1024-thread block budget, at most three
   influenced dimensions per statement, four scenario sets per kernel. *)
let thread_limit = 1024
let max_depth = 3
let max_alternatives = 4

(* [Stmt.extent stmt], each iterator's computed once: an extent costs two
   box optimizations, and Algorithm 2 asks for each many times. *)
let extents stmt =
  let tbl = Hashtbl.create 4 in
  fun it ->
    match Hashtbl.find_opt tbl it with
    | Some n -> n
    | None ->
      let n = Stmt.extent stmt it in
      Hashtbl.add tbl it n;
      n

let build_with ?weights ~extent kernel stmt ~alternative =
  let innermost_ranked =
    ranked_candidates ?weights ~extent kernel stmt ~taken:[] ~innermost:true
      ~thread_budget:thread_limit
  in
  match List.nth_opt innermost_ranked alternative with
  | None -> None
  | Some (inner, inner_score) ->
    let budget = ref (max 1 (thread_limit / extent inner)) in
    let rec grow acc score =
      if List.length acc >= max_depth || List.length acc >= Stmt.dim stmt then
        (acc, score)
      else begin
        match
          ranked_candidates ?weights ~extent kernel stmt ~taken:acc ~innermost:false
            ~thread_budget:!budget
        with
        | [] -> (acc, score)
        | (best, s) :: _ ->
          budget := max 1 (!budget / extent best);
          grow (best :: acc) (score +. s)
      end
    in
    let dims, score = grow [ inner ] inner_score in
    let width = Costmodel.stmt_vector_width ~extent kernel stmt ~iter:inner in
    let sc =
      { stmt = stmt.Stmt.name;
        dims;
        vector_iter = (if width > 1 then Some inner else None);
        vector_width = width;
        score
      }
    in
    Obs.Trace.emitf "vectorizer.scenario" (fun () ->
        [ ("stmt", Obs.Json.String sc.stmt);
          ("alternative", Obs.Json.Int alternative);
          ("dims", Obs.Json.List (List.map (fun d -> Obs.Json.String d) sc.dims));
          ( "vector_iter",
            match sc.vector_iter with
            | Some it -> Obs.Json.String it
            | None -> Obs.Json.Null );
          ("vector_width", Obs.Json.Int sc.vector_width);
          ("score", Obs.Json.Float sc.score)
        ]);
    Some sc

let build ?weights kernel stmt ~alternative =
  build_with ?weights ~extent:(extents stmt) kernel stmt ~alternative

let build_all ?weights kernel =
  (* one extent table per statement, shared by every alternative *)
  let stmts = List.map (fun s -> (s, extents s)) kernel.Kernel.stmts in
  let set r =
    List.map
      (fun (s, extent) ->
        match build_with ?weights ~extent kernel s ~alternative:r with
        | Some sc -> sc
        | None -> Option.get (build_with ?weights ~extent kernel s ~alternative:0))
      stmts
  in
  let sets = List.init max_alternatives set in
  (* deduplicate consecutive identical sets (statements with few dims) *)
  let key set = String.concat "|" (List.map (fun s -> String.concat "," s.dims) set) in
  let _, uniq =
    List.fold_left
      (fun (seen, acc) s ->
        let k = key s in
        if List.mem k seen then (seen, acc) else (k :: seen, s :: acc))
      ([], []) sets
  in
  List.rev uniq

let pp fmt s =
  Format.fprintf fmt "%s: [%s]%s score=%.2f" s.stmt
    (String.concat ", " s.dims)
    (match s.vector_iter with
     | Some it -> Printf.sprintf " vec(%s x%d)" it s.vector_width
     | None -> "")
    s.score
