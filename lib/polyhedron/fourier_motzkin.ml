open Polybase

exception Contradiction

module Cset = Set.Make (Constr)

let c_memo_hits =
  Obs.Counters.create "fm.memo_hits"
    ~doc:"Fourier-Motzkin simplifications and eliminations answered from the solver memo"

(* [None] stands for a raised [Contradiction], which is an answer too. *)
let memoized find key f =
  match find key (fun () -> match f () with r -> Some r | exception Contradiction -> None) with
  | Some r -> r
  | None -> raise Contradiction

module Simplify_memo = Solver_memo.Make (struct
  type key = Constr.t list
  type value = Constr.t list option

  let hash = Solver_memo.hash_constrs 0
  let equal = Solver_memo.equal_constrs
  let hits = c_memo_hits
end)

module Eliminate_memo = Solver_memo.Make (struct
  type key = string list * Constr.t list
  type value = Constr.t list option

  let hash (xs, cs) =
    Solver_memo.hash_constrs (List.fold_left (fun h x -> (h * 65599) + Hashtbl.hash x) 0 xs) cs

  let equal (xs, cs) (xs', cs') = List.equal String.equal xs xs' && Solver_memo.equal_constrs cs cs'
  let hits = c_memo_hits
end)

let simplify_raw cs =
  let keep c =
    match Constr.triviality c with
    | Some true -> false
    | Some false -> raise Contradiction
    | None -> true
  in
  let cs = List.filter keep (List.map Constr.normalize cs) in
  Cset.elements (Cset.of_list cs)

let simplify cs = memoized Simplify_memo.find cs (fun () -> simplify_raw cs)

(* One elimination step simplifies with [simplify_raw]: a repeated
   elimination is answered whole by [eliminate_all]'s table, and storing
   every intermediate system as well saved no time but ~1 MiB of peak
   memory over a zoo pass. *)

let eliminate x cs =
  let mentions, rest = List.partition (fun c -> not (Q.is_zero (Linexpr.coef c.Constr.expr x))) cs in
  match mentions with
  | [] -> cs
  | _ ->
    (* Prefer substitution through an equality: a*x + e = 0  =>  x = -e/a. *)
    let eq_opt = List.find_opt (fun c -> c.Constr.kind = Constr.Eq) mentions in
    (match eq_opt with
     | Some ({ expr; _ } as eqc) ->
       let a = Linexpr.coef expr x in
       let e = Linexpr.add_term (Q.neg a) x expr in
       (* expr = a*x + e, so x = -e/a *)
       let x_value = Linexpr.scale (Q.neg (Q.inv a)) e in
       let others = List.filter (fun c -> c != eqc) mentions in
       simplify_raw (rest @ List.map (Constr.subst x x_value) others)
     | None ->
       (* All inequalities: split by the sign of x's coefficient. *)
       let pos, neg =
         List.partition (fun c -> Q.sign (Linexpr.coef c.Constr.expr x) > 0) mentions
       in
       (* pos: a*x + e >= 0 with a > 0  =>  x >= -e/a  (lower bounds)
          neg: a*x + e >= 0 with a < 0  =>  x <= e/(-a) (upper bounds)
          combine every (lower, upper) pair. *)
       let combos =
         List.concat_map
           (fun lo ->
             let a = Linexpr.coef lo.Constr.expr x in
             let elo = Linexpr.add_term (Q.neg a) x lo.Constr.expr in
             let lower = Linexpr.scale (Q.neg (Q.inv a)) elo in
             List.map
               (fun hi ->
                 let b = Linexpr.coef hi.Constr.expr x in
                 let ehi = Linexpr.add_term (Q.neg b) x hi.Constr.expr in
                 let upper = Linexpr.scale (Q.inv (Q.neg b)) ehi in
                 (* upper >= lower *)
                 Constr.geq upper lower)
               neg)
           pos
       in
       simplify_raw (rest @ combos))

let eliminate_all xs cs =
  memoized Eliminate_memo.find (xs, cs) (fun () -> List.fold_left (fun acc x -> eliminate x acc) cs xs)
