(* Tests for the polyhedral substrate: Linexpr, Constr, Simplex,
   Fourier-Motzkin, Polyhedron, Ilp. *)

open Polybase
open Polyhedra

let le = Linexpr.of_int_terms
let q = Q.of_int

let check_q msg expected actual =
  Alcotest.(check string) msg (Q.to_string expected) (Q.to_string actual)

(* ------------------------------------------------------------------ *)
(* Linexpr                                                              *)
(* ------------------------------------------------------------------ *)

let test_linexpr_algebra () =
  let e = le [ (2, "x"); (3, "y") ] 1 in
  check_q "coef x" (q 2) (Linexpr.coef e "x");
  check_q "coef z" Q.zero (Linexpr.coef e "z");
  check_q "constant" (q 1) (Linexpr.constant e);
  Alcotest.(check (list string)) "vars" [ "x"; "y" ] (Linexpr.vars e);
  let f = Linexpr.add e (le [ (-2, "x"); (1, "z") ] 4) in
  Alcotest.(check (list string)) "vars after cancel" [ "y"; "z" ] (Linexpr.vars f);
  check_q "const after add" (q 5) (Linexpr.constant f);
  let g = Linexpr.sub e e in
  Alcotest.(check bool) "e - e = 0" true (Linexpr.equal g Linexpr.zero)

let test_linexpr_subst_eval () =
  let e = le [ (2, "x"); (3, "y") ] 1 in
  (* x := y + 5  =>  2y + 10 + 3y + 1 = 5y + 11 *)
  let e' = Linexpr.subst "x" (le [ (1, "y") ] 5) e in
  Alcotest.(check bool) "subst" true (Linexpr.equal e' (le [ (5, "y") ] 11));
  let env = function "x" -> q 10 | "y" -> q (-1) | _ -> Q.zero in
  check_q "eval" (q 18) (Linexpr.eval env e)

let test_linexpr_rename () =
  let e = le [ (1, "x"); (2, "y") ] 0 in
  let e' = Linexpr.rename (fun v -> v ^ "'") e in
  Alcotest.(check (list string)) "renamed" [ "x'"; "y'" ] (Linexpr.vars e');
  Alcotest.(check_raises) "non-injective rejected" (Invalid_argument "Linexpr.rename: not injective")
    (fun () -> ignore (Linexpr.rename (fun _ -> "same") e))

(* ------------------------------------------------------------------ *)
(* Simplex                                                              *)
(* ------------------------------------------------------------------ *)

let test_simplex_basic_min () =
  (* min x + y  s.t. x >= 1, y >= 2  => 3 at (1,2) *)
  let cs = [ Constr.lower_bound "x" 1; Constr.lower_bound "y" 2 ] in
  (match Simplex.minimize cs (le [ (1, "x"); (1, "y") ] 0) with
   | Simplex.Optimal (v, a) ->
     check_q "value" (q 3) v;
     check_q "x" (q 1) (a "x");
     check_q "y" (q 2) (a "y")
   | _ -> Alcotest.fail "expected optimal")

let test_simplex_max_over_polytope () =
  (* max 3x + 2y over x,y >= 0, x + y <= 4, x <= 3 => 11 at (3,1) *)
  let cs =
    [ Constr.lower_bound "x" 0;
      Constr.lower_bound "y" 0;
      Constr.leq (le [ (1, "x"); (1, "y") ] 0) (Linexpr.const_int 4);
      Constr.upper_bound "x" 3
    ]
  in
  (match Simplex.maximize cs (le [ (3, "x"); (2, "y") ] 0) with
   | Simplex.Optimal (v, a) ->
     check_q "value" (q 11) v;
     check_q "x" (q 3) (a "x");
     check_q "y" (q 1) (a "y")
   | _ -> Alcotest.fail "expected optimal")

let test_simplex_infeasible () =
  let cs = [ Constr.lower_bound "x" 2; Constr.upper_bound "x" 1 ] in
  (match Simplex.minimize cs (Linexpr.var "x") with
   | Simplex.Infeasible -> ()
   | _ -> Alcotest.fail "expected infeasible")

let test_simplex_unbounded () =
  let cs = [ Constr.upper_bound "x" 5 ] in
  (match Simplex.minimize cs (Linexpr.var "x") with
   | Simplex.Unbounded -> ()
   | _ -> Alcotest.fail "expected unbounded")

let test_simplex_equalities () =
  (* min y s.t. x + y = 10, x - y = 4  => unique point (7,3) *)
  let cs =
    [ Constr.eq (le [ (1, "x"); (1, "y") ] 0) (Linexpr.const_int 10);
      Constr.eq (le [ (1, "x"); (-1, "y") ] 0) (Linexpr.const_int 4)
    ]
  in
  (match Simplex.minimize cs (Linexpr.var "y") with
   | Simplex.Optimal (v, a) ->
     check_q "y" (q 3) v;
     check_q "x" (q 7) (a "x")
   | _ -> Alcotest.fail "expected optimal")

let test_simplex_negative_solution () =
  (* Free variables can go negative: min x s.t. x >= -5. *)
  let cs = [ Constr.lower_bound "x" (-5) ] in
  (match Simplex.minimize cs (Linexpr.var "x") with
   | Simplex.Optimal (v, _) -> check_q "value" (q (-5)) v
   | _ -> Alcotest.fail "expected optimal")

let test_simplex_fractional_vertex () =
  (* min x s.t. 2x >= 1 has rational optimum 1/2. *)
  let cs = [ Constr.ge0 (le [ (2, "x") ] (-1)) ] in
  (match Simplex.minimize cs (Linexpr.var "x") with
   | Simplex.Optimal (v, _) -> check_q "value" (Q.of_ints 1 2) v
   | _ -> Alcotest.fail "expected optimal")

let test_simplex_redundant_rows () =
  (* Duplicate equalities must not confuse phase 1's redundant-row cleanup. *)
  let eq = Constr.eq (le [ (1, "x"); (1, "y") ] 0) (Linexpr.const_int 2) in
  let cs = [ eq; eq; Constr.lower_bound "x" 0; Constr.lower_bound "y" 0 ] in
  (match Simplex.minimize cs (Linexpr.var "x") with
   | Simplex.Optimal (v, _) -> check_q "value" Q.zero v
   | _ -> Alcotest.fail "expected optimal")

(* Random LP property: the optimum the simplex reports is feasible, attains
   the reported value, and is no worse than a brute-forced grid of feasible
   points. *)
let random_box_lp_gen =
  QCheck2.Gen.(
    let coef = int_range (-4) 4 in
    let bound = int_range 0 6 in
    triple
      (list_size (int_range 1 4) (triple coef coef (int_range (-3) 6)))
      (pair coef coef)
      bound)

let prop_simplex_sound =
  QCheck2.Test.make ~name:"simplex optimum is feasible and dominates grid" ~count:200
    random_box_lp_gen
    (fun (ineqs, (cx, cy), ub) ->
      let box =
        [ Constr.lower_bound "x" 0; Constr.upper_bound "x" ub;
          Constr.lower_bound "y" 0; Constr.upper_bound "y" ub ]
      in
      let cs =
        box
        @ List.map (fun (a, b, c) -> Constr.ge0 (le [ (a, "x"); (b, "y") ] c)) ineqs
      in
      let obj = le [ (cx, "x"); (cy, "y") ] 0 in
      let feasible_grid =
        List.concat_map
          (fun x ->
            List.filter_map
              (fun y ->
                let env = function "x" -> q x | "y" -> q y | _ -> Q.zero in
                if List.for_all (Constr.holds env) cs then Some (cx * x + (cy * y))
                else None)
              (List.init (ub + 1) Fun.id))
          (List.init (ub + 1) Fun.id)
      in
      match Simplex.minimize cs obj with
      | Simplex.Unbounded -> false (* impossible: box-bounded *)
      | Simplex.Infeasible -> feasible_grid = []
      | Simplex.Optimal (v, a) ->
        let env x = a x in
        List.for_all (Constr.holds env) cs
        && Q.equal v (Linexpr.eval env obj)
        && List.for_all (fun g -> Q.compare v (q g) <= 0) feasible_grid)

(* Random mixed systems over 2-4 variables: equalities and inequalities
   with constants of both signs and zero (so some rows hold at the origin
   and some do not), plus duplicated rows and trivially true rows.  The
   verdict is checked against Fourier-Motzkin elimination of every
   variable, which never calls the simplex. *)
let mixed_system_gen =
  QCheck2.Gen.(
    let* nv = int_range 2 4 in
    let vars = List.init nv (Printf.sprintf "v%d") in
    let row =
      let* kind = frequency [ (3, pure Constr.Ge); (1, pure Constr.Eq) ] in
      let* coefs = list_repeat nv (int_range (-3) 3) in
      let+ k = int_range (-4) 4 in
      { Constr.expr = le (List.combine coefs vars) k; kind }
    in
    let* rows = list_size (int_range 1 8) row in
    let* dups = list_size (int_range 0 2) (oneofl rows) in
    let* trivial =
      list_size (int_range 0 1)
        (map (fun k -> Constr.ge0 (Linexpr.const_int k)) (int_range 0 3))
    in
    let* shuffled = shuffle_l (rows @ dups @ trivial) in
    let+ obj = list_repeat nv (int_range (-2) 2) in
    (shuffled, le (List.combine obj vars) 0))

let print_system (cs, obj) =
  String.concat "; " (List.map Constr.to_string cs)
  ^ " | min " ^ Linexpr.to_string obj

let prop_feasibility_matches_fm =
  QCheck2.Test.make ~name:"feasibility verdicts match Fourier-Motzkin" ~count:500
    ~print:print_system mixed_system_gen
    (fun (cs, obj) ->
      (* Eliminating every variable leaves no constraint exactly when the
         system is feasible (an empty set keeps its contradiction). *)
      let p = Polyhedron.of_constraints cs in
      let feasible =
        Polyhedron.constraints (Polyhedron.project_out (Polyhedron.vars p) p) = []
      in
      let point_ok =
        match Simplex.feasible_point cs with
        | None -> not feasible
        | Some a -> feasible && List.for_all (Constr.holds a) cs
      in
      let optimum_ok =
        match
          ( Simplex.minimize cs obj,
            Simplex.Tableau.of_constraints ~extra_exprs:[ obj ] cs )
        with
        | Simplex.Infeasible, None -> true
        | Simplex.Unbounded, Some t -> Simplex.Tableau.set_objective t obj = `Unbounded
        | Simplex.Optimal (v, _), Some t ->
          Simplex.Tableau.set_objective t obj = `Optimal
          && Q.equal v (Simplex.Tableau.value t)
        | _ -> false
      in
      Simplex.is_feasible cs = feasible
      && Option.is_some (Simplex.Tableau.of_constraints cs) = feasible
      && point_ok && optimum_ok)

(* ------------------------------------------------------------------ *)
(* An LP oracle that shares no code with the solver                     *)
(* ------------------------------------------------------------------ *)

(* Box-bounded systems over one to three variables, so the feasible set
   is a polytope: empty, or the hull of its vertices, with every linear
   objective attaining its optimum at a vertex.  Besides the box, the
   rows are random inequalities and equalities, and degenerate copies of
   any row: an exact duplicate, a scaled copy (the same hyperplane) and a
   parallel shift (for an equality, a contradiction). *)
let lp_oracle_gen =
  QCheck2.Gen.(
    let* nv = int_range 1 3 in
    let vars = List.filteri (fun i _ -> i < nv) [ "x"; "y"; "z" ] in
    let bounds v =
      let* lo = int_range (-3) 1 in
      let+ width = int_range 0 4 in
      [ Constr.lower_bound v lo; Constr.upper_bound v (lo + width) ]
    in
    let* box = flatten_l (List.map bounds vars) in
    let row =
      let* kind = frequency [ (3, pure Constr.Ge); (1, pure Constr.Eq) ] in
      let* coefs = list_repeat nv (int_range (-3) 3) in
      let+ k = int_range (-6) 6 in
      { Constr.expr = le (List.combine coefs vars) k; kind }
    in
    let* extra = list_size (int_range 0 4) row in
    let rows = List.concat box @ extra in
    let degenerate (r : Constr.t) =
      let* s = int_range 2 3 in
      let+ shift = oneofl [ -2; -1; 1; 2 ] in
      [ r;
        { r with expr = Linexpr.scale (q s) r.expr };
        { r with expr = Linexpr.add r.expr (Linexpr.const_int shift) } ]
    in
    let* copies =
      list_size (int_range 0 2) (oneofl rows >>= degenerate >>= oneofl)
    in
    let* cs = shuffle_l (rows @ copies) in
    let* ocoefs = list_repeat nv (int_range (-3) 3) in
    let+ ok = int_range (-3) 3 in
    (vars, cs, le (List.combine ocoefs vars) ok))

let print_lp (_, cs, obj) = print_system (cs, obj)

(* The vertices of [cs] over [vars]: each [n]-subset of rows whose normals
   have full rank [n] meets in one point, solved exactly with
   [Linalg]; the feasible ones are the vertices. *)
let lp_vertices vars cs =
  let n = List.length vars in
  let rows =
    Array.of_list
      (List.map
         (fun c ->
           let e = c.Constr.expr in
           (Array.of_list (List.map (Linexpr.coef e) vars), Q.neg (Linexpr.constant e)))
         cs)
  in
  let m = Array.length rows in
  let rec subsets k from =
    if k = 0 then [ [] ]
    else if from >= m then []
    else List.map (fun s -> from :: s) (subsets (k - 1) (from + 1)) @ subsets k (from + 1)
  in
  List.filter_map
    (fun s ->
      let a = Array.of_list (List.map (fun i -> fst rows.(i)) s)
      and b = Array.of_list (List.map (fun i -> snd rows.(i)) s) in
      if Linalg.rank a < n then None
      else
        Option.bind (Linalg.solve a b) (fun x ->
            let env v =
              match List.find_index (String.equal v) vars with
              | Some i -> x.(i)
              | None -> Q.zero
            in
            if List.for_all (Constr.holds env) cs then Some env else None))
    (subsets n 0)

let prop_lp_matches_vertex_oracle =
  QCheck2.Test.make ~name:"LP optimum equals the best vertex" ~count:500 ~print:print_lp
    lp_oracle_gen
    (fun (vars, cs, obj) ->
      let values = List.map (fun env -> Linexpr.eval env obj) (lp_vertices vars cs) in
      let best pick = List.fold_left pick (List.hd values) values in
      let attains v a = List.for_all (Constr.holds a) cs && Q.equal v (Linexpr.eval a obj) in
      let one_shot =
        match (values, Simplex.minimize cs obj, Simplex.maximize cs obj) with
        | [], Simplex.Infeasible, Simplex.Infeasible -> true
        | _ :: _, Simplex.Optimal (lo, a), Simplex.Optimal (hi, b) ->
          Q.equal lo (best Q.min) && Q.equal hi (best Q.max)
          && attains lo a && attains hi b
        | _ -> false
      in
      let tableau =
        match (values, Simplex.Tableau.of_constraints ~extra_exprs:[ obj ] cs) with
        | [], None -> true
        | _ :: _, Some t ->
          Simplex.Tableau.set_objective t obj = `Optimal
          && Q.equal (Simplex.Tableau.value t) (best Q.min)
          && attains (Simplex.Tableau.value t) (Simplex.Tableau.assignment t)
        | _ -> false
      in
      one_shot && tableau)

(* ------------------------------------------------------------------ *)
(* Fourier-Motzkin / Polyhedron                                         *)
(* ------------------------------------------------------------------ *)

let test_fm_projection_interval () =
  (* { (x,y) | 0 <= y <= 3, x = 2y }: projecting out y gives 0 <= x <= 6. *)
  let p =
    Polyhedron.of_constraints
      [ Constr.lower_bound "y" 0;
        Constr.upper_bound "y" 3;
        Constr.eq (Linexpr.var "x") (le [ (2, "y") ] 0)
      ]
  in
  let px = Polyhedron.project_out [ "y" ] p in
  (match Polyhedron.minimum px (Linexpr.var "x") with
   | `Value v -> check_q "min x" Q.zero v
   | _ -> Alcotest.fail "expected min");
  (match Polyhedron.maximum px (Linexpr.var "x") with
   | `Value v -> check_q "max x" (q 6) v
   | _ -> Alcotest.fail "expected max")

let test_fm_empty_detection () =
  let p =
    Polyhedron.of_constraints
      [ Constr.lower_bound "x" 0;
        Constr.upper_bound "x" 10;
        Constr.geq (Linexpr.var "y") (le [ (1, "x") ] 1);
        Constr.leq (Linexpr.var "y") (le [ (1, "x") ] (-1))
      ]
  in
  Alcotest.(check bool) "empty" true (Polyhedron.is_empty (Polyhedron.project_out [ "y" ] p));
  Alcotest.(check bool) "empty before projection" true (Polyhedron.is_empty p)

let test_polyhedron_membership () =
  let p = Polyhedron.of_constraints [ Constr.lower_bound "x" 0; Constr.upper_bound "x" 5 ] in
  let at v = fun _ -> q v in
  Alcotest.(check bool) "3 in" true (Polyhedron.mem (at 3) p);
  Alcotest.(check bool) "7 out" false (Polyhedron.mem (at 7) p);
  Alcotest.(check bool) "Polyhedron.sample in" true
    (match Polyhedron.sample p with Some a -> Polyhedron.mem a p | None -> false)

let prop_fm_projection_sound =
  (* Any Polyhedron.sample of P projects into Polyhedron.project_out(P). *)
  QCheck2.Test.make ~name:"FM projection contains projected samples" ~count:200
    random_box_lp_gen
    (fun (ineqs, _, ub) ->
      let cs =
        [ Constr.lower_bound "x" 0; Constr.upper_bound "x" ub;
          Constr.lower_bound "y" 0; Constr.upper_bound "y" ub ]
        @ List.map (fun (a, b, c) -> Constr.ge0 (le [ (a, "x"); (b, "y") ] c)) ineqs
      in
      let p = Polyhedron.of_constraints cs in
      let proj = Polyhedron.project_out [ "y" ] p in
      match Polyhedron.sample p with
      | None -> Polyhedron.is_empty proj
      | Some a -> Polyhedron.mem a proj)

let prop_fm_projection_tight =
  (* Any rational Polyhedron.sample of the projection extends to a point of P: check by
     substituting the sampled x and testing feasibility over y. *)
  QCheck2.Test.make ~name:"FM projection points extend" ~count:200
    random_box_lp_gen
    (fun (ineqs, _, ub) ->
      let cs =
        [ Constr.lower_bound "x" 0; Constr.upper_bound "x" ub;
          Constr.lower_bound "y" 0; Constr.upper_bound "y" ub ]
        @ List.map (fun (a, b, c) -> Constr.ge0 (le [ (a, "x"); (b, "y") ] c)) ineqs
      in
      let p = Polyhedron.of_constraints cs in
      let proj = Polyhedron.project_out [ "y" ] p in
      match Polyhedron.sample proj with
      | None -> true
      | Some a ->
        let fixed =
          List.map (Constr.subst "x" (Linexpr.const (a "x"))) (Polyhedron.constraints p)
        in
        Simplex.is_feasible fixed)

(* ------------------------------------------------------------------ *)
(* ILP                                                                  *)
(* ------------------------------------------------------------------ *)

let test_ilp_rounds_up () =
  (* min x s.t. 2x >= 1, x integer => 1 (LP relaxation: 1/2). *)
  match
    Ilp.minimize
      ~constraints:[ Constr.ge0 (le [ (2, "x") ] (-1)) ]
      ~integer_vars:[ "x" ] (Linexpr.var "x")
  with
  | Some (v, a) ->
    check_q "value" (q 1) v;
    check_q "x" (q 1) (a "x")
  | None -> Alcotest.fail "expected solution"

let test_ilp_knapsackish () =
  (* min 3x + 4y s.t. 2x + 3y >= 7, x,y >= 0 integer.
     LP gives y = 7/3; integer optimum is x=2,y=1 (cost 10). *)
  match
    Ilp.minimize
      ~constraints:
        [ Constr.ge0 (le [ (2, "x"); (3, "y") ] (-7));
          Constr.lower_bound "x" 0; Constr.lower_bound "y" 0 ]
      ~integer_vars:[ "x"; "y" ]
      (le [ (3, "x"); (4, "y") ] 0)
  with
  | Some (v, _) -> check_q "value" (q 10) v
  | None -> Alcotest.fail "expected solution"

let test_ilp_infeasible () =
  (* 0 < 2x < 2 has no integer solution. *)
  let r =
    Ilp.minimize
      ~constraints:
        [ Constr.ge0 (le [ (2, "x") ] (-1)); Constr.ge0 (le [ (-2, "x") ] 1) ]
      ~integer_vars:[ "x" ] (Linexpr.var "x")
  in
  Alcotest.(check bool) "integer infeasible" true (r = None)

let test_ilp_lexmin () =
  (* Lexicographically minimize (x, y) over x + y >= 3, 0 <= x,y <= 5:
     first x -> 0, then y -> 3. *)
  match
    Ilp.lexmin
      ~constraints:
        [ Constr.ge0 (le [ (1, "x"); (1, "y") ] (-3));
          Constr.lower_bound "x" 0; Constr.upper_bound "x" 5;
          Constr.lower_bound "y" 0; Constr.upper_bound "y" 5 ]
      ~integer_vars:[ "x"; "y" ]
      [ Linexpr.var "x"; Linexpr.var "y" ]
  with
  | Some a ->
    check_q "x" Q.zero (a "x");
    check_q "y" (q 3) (a "y")
  | None -> Alcotest.fail "expected solution"

let test_ilp_lexmin_order_matters () =
  match
    Ilp.lexmin
      ~constraints:
        [ Constr.ge0 (le [ (1, "x"); (1, "y") ] (-3));
          Constr.lower_bound "x" 0; Constr.upper_bound "x" 5;
          Constr.lower_bound "y" 0; Constr.upper_bound "y" 5 ]
      ~integer_vars:[ "x"; "y" ]
      [ Linexpr.var "y"; Linexpr.var "x" ]
  with
  | Some a ->
    check_q "y first" Q.zero (a "y");
    check_q "then x" (q 3) (a "x")
  | None -> Alcotest.fail "expected solution"

let prop_ilp_dominates_grid =
  QCheck2.Test.make ~name:"ILP optimum matches integer grid brute force" ~count:150
    random_box_lp_gen
    (fun (ineqs, (cx, cy), ub) ->
      let cs =
        [ Constr.lower_bound "x" 0; Constr.upper_bound "x" ub;
          Constr.lower_bound "y" 0; Constr.upper_bound "y" ub ]
        @ List.map (fun (a, b, c) -> Constr.ge0 (le [ (a, "x"); (b, "y") ] c)) ineqs
      in
      let obj = le [ (cx, "x"); (cy, "y") ] 0 in
      let grid_values =
        List.concat_map
          (fun x ->
            List.filter_map
              (fun y ->
                let env = function "x" -> q x | "y" -> q y | _ -> Q.zero in
                if List.for_all (Constr.holds env) cs then Some (cx * x + (cy * y))
                else None)
              (List.init (ub + 1) Fun.id))
          (List.init (ub + 1) Fun.id)
      in
      match Ilp.minimize ~constraints:cs ~integer_vars:[ "x"; "y" ] obj with
      | None -> grid_values = []
      | Some (v, a) ->
        grid_values <> []
        && Q.equal v (q (List.fold_left min max_int grid_values))
        && Q.is_integer (a "x")
        && Q.is_integer (a "y"))

(* ------------------------------------------------------------------ *)
(* Incremental tableau + warm-started branch-and-bound                  *)
(* ------------------------------------------------------------------ *)

let test_tableau_matches_oneshot () =
  let cs =
    [ Constr.geq (le [ (1, "x") ] 0) (le [] 1);
      Constr.geq (le [ (1, "y") ] 0) (le [] 1);
      Constr.leq (le [ (1, "x"); (2, "y") ] 0) (le [] 10)
    ]
  in
  let obj = le [ (1, "x"); (1, "y") ] 0 in
  match Simplex.Tableau.of_constraints ~extra_exprs:[ obj ] cs with
  | None -> Alcotest.fail "tableau construction failed on feasible system"
  | Some t -> (
    (match Simplex.Tableau.set_objective t obj with
     | `Unbounded -> Alcotest.fail "bounded problem reported unbounded"
     | `Optimal -> ());
    (match Simplex.minimize cs obj with
     | Simplex.Optimal (v, _) -> check_q "same optimum" v (Simplex.Tableau.value t)
     | _ -> Alcotest.fail "one-shot solver disagrees on feasibility");
    (* push x >= 4: optimum moves from x=y=1 to x=4, y=1 *)
    (match Simplex.Tableau.with_ge t (le [ (1, "x") ] (-4)) with
     | None -> Alcotest.fail "tightened system still feasible"
     | Some t' ->
       check_q "dual re-optimized" (q 5) (Simplex.Tableau.value t');
       check_q "x pushed to bound" (q 4) (Simplex.Tableau.assignment t' "x");
       (* the parent tableau is untouched *)
       check_q "parent optimum intact" (q 2) (Simplex.Tableau.value t));
    (* push a contradiction: x <= 0 against x >= 1 *)
    match Simplex.Tableau.with_le t (le [ (1, "x") ] 0) with
    | Some _ -> Alcotest.fail "contradictory row accepted"
    | None -> ())

let test_pivot_rule_counts () =
  (* The one-shot path uses Dantzig's entering rule, the tableau path
     Bland's.  On this fixed LP suite Dantzig must pivot strictly less —
     the regression guard for the pivot-rule change. *)
  let nv = 8 in
  let var i = Printf.sprintf "v%d" i in
  let lps =
    List.init 12 (fun s ->
        let lower = List.init nv (fun i -> Constr.lower_bound (var i) 0) in
        let planes =
          List.init nv (fun j ->
              let terms =
                List.init nv (fun i -> (1 + (((i * j) + s + i) mod 5), var i))
              in
              Constr.leq (le terms 0) (le [] (25 + j + s)))
        in
        let obj =
          le (List.init nv (fun i -> (-(1 + (((2 * i) + s) mod 7)), var i))) 0
        in
        (lower @ planes, obj))
  in
  let pivots f =
    let before = Obs.Counters.find "simplex.pivots" in
    List.iter f lps;
    Obs.Counters.find "simplex.pivots" - before
  in
  let dantzig = pivots (fun (cs, o) -> ignore (Simplex.minimize cs o)) in
  let bland =
    pivots (fun (cs, o) ->
        match Simplex.Tableau.of_constraints ~extra_exprs:[ o ] cs with
        | None -> Alcotest.fail "feasible suite reported infeasible"
        | Some t -> ignore (Simplex.Tableau.set_objective t o))
  in
  Alcotest.(check bool)
    (Printf.sprintf "dantzig (%d) pivots less than bland (%d)" dantzig bland)
    true
    (dantzig < bland)

(* Tableau copies share their unchanged rows with the parent, so every
   push must leave each ancestor as it was: its value, its assignment and
   what a further push on it (a sibling branch) finds.  A random chain of
   [with_le]/[with_ge] pushes (feasible or not, a [None] keeps the
   current tableau) on a box-bounded system, with a new objective
   installed on some of the children. *)
let parent_intact_gen =
  QCheck2.Gen.(
    let* vars, cs, obj = lp_oracle_gen in
    let nv = List.length vars in
    let expr k =
      map (fun coefs -> le (List.combine coefs vars) k) (list_repeat nv (int_range (-2) 2))
    in
    let push =
      let* le_row = bool in
      let* e = int_range (-4) 4 >>= expr in
      let+ reobjective = frequency [ (3, pure None); (1, map Option.some (expr 0)) ] in
      (le_row, e, reobjective)
    in
    let+ pushes = list_size (int_range 1 6) push in
    (vars, cs, obj, pushes))

let prop_parent_intact =
  QCheck2.Test.make ~name:"pushes leave every ancestor intact" ~count:500
    ~print:(fun (v, cs, obj, _) -> print_lp (v, cs, obj))
    parent_intact_gen
    (fun (vars, cs, obj, pushes) ->
      let state t =
        let a = Simplex.Tableau.assignment t in
        (Simplex.Tableau.value t, List.map a vars)
      in
      let same_state (v, xs) (v', xs') = Q.equal v v' && List.equal Q.equal xs xs' in
      let snapshot t =
        (* the sibling branch: first variable >= its value + 1 *)
        let x = List.hd vars in
        let bound = Q.add (Simplex.Tableau.assignment t x) Q.one in
        let sibling =
          Simplex.Tableau.with_ge t (Linexpr.add_term Q.one x (Linexpr.const (Q.neg bound)))
        in
        (state t, Option.map state sibling)
      in
      let intact (t, (s, sibling)) =
        let s', sibling' = snapshot t in
        same_state s s' && Option.equal same_state sibling sibling'
      in
      match Simplex.Tableau.of_constraints ~extra_exprs:[ obj ] cs with
      | None -> true
      | Some root ->
        ignore (Simplex.Tableau.set_objective root obj);
        let rec go ancestors t = function
          | [] -> true
          | (le_row, e, reobjective) :: rest ->
            let ancestors = (t, snapshot t) :: ancestors in
            let child =
              if le_row then Simplex.Tableau.with_le t e else Simplex.Tableau.with_ge t e
            in
            let t =
              match child with
              | None -> t
              | Some c ->
                Option.iter (fun o -> ignore (Simplex.Tableau.set_objective c o)) reobjective;
                c
            in
            List.for_all intact ancestors && go ancestors t rest
        in
        go [] root pushes)

let test_tableau_without_rows () =
  (* No constraint rows: the tableau is just the columns of x. *)
  match Simplex.Tableau.of_constraints ~extra_exprs:[ Linexpr.var "x" ] [] with
  | None -> Alcotest.fail "the empty system is feasible"
  | Some t -> (
    check_q "empty optimum" Q.zero (Simplex.Tableau.value t);
    match Simplex.Tableau.with_le t (le [ (1, "x") ] (-3)) with
    | None -> Alcotest.fail "x <= 3 is feasible"
    | Some t1 ->
      Alcotest.(check bool) "max x under x <= 3" true
        (Simplex.Tableau.set_objective t1 (le [ (-1, "x") ] 0) = `Optimal);
      check_q "x at its bound" (q 3) (Simplex.Tableau.assignment t1 "x");
      check_q "child optimum" (q (-3)) (Simplex.Tableau.value t1);
      Alcotest.(check bool) "x >= 5 contradicts x <= 3" true
        (Simplex.Tableau.with_ge t1 (le [ (1, "x") ] (-5)) = None);
      check_q "parent value intact" Q.zero (Simplex.Tableau.value t);
      check_q "parent assignment intact" Q.zero (Simplex.Tableau.assignment t "x");
      Alcotest.(check bool) "parent has no bound on x" true
        (Simplex.Tableau.set_objective t (le [ (-1, "x") ] 0) = `Unbounded))

(* Random small ILPs: box-bounded (so never unbounded), a few extra
   half-planes, one or two objectives. *)
let ilp_case_gen =
  let open QCheck2.Gen in
  let coef = int_range (-3) 3 in
  let vars = [ "x"; "y"; "z" ] in
  let linexpr =
    map2
      (fun cs k -> le (List.map2 (fun c v -> (c, v)) cs vars) k)
      (list_repeat 3 coef) (int_range (-6) 6)
  in
  let box =
    map
      (fun ub ->
        List.concat_map
          (fun v -> [ Constr.lower_bound v 0; Constr.upper_bound v ub ])
          vars)
      (int_range 2 6)
  in
  let extra = list_size (int_range 0 3) (map Constr.ge0 linexpr) in
  quad box extra (list_size (int_range 1 2) linexpr) (int_range 0 2)

let prop_warm_matches_cold =
  QCheck2.Test.make ~name:"warm lexmin matches cold reference" ~count:1000
    ilp_case_gen
    (fun (box, extra, objectives, n_int) ->
      let constraints = box @ extra in
      let integer_vars = List.filteri (fun i _ -> i <= n_int) [ "x"; "y"; "z" ] in
      let warm = Ilp.lexmin ~constraints ~integer_vars objectives in
      let cold = Ilp.lexmin_cold ~constraints ~integer_vars objectives in
      match (warm, cold) with
      | None, None -> true
      | Some _, None | None, Some _ -> false
      | Some aw, Some ac ->
        (* The lexicographic objective-value vector is unique even when the
           attaining point is not; the warm point must also be feasible and
           integral. *)
        List.for_all
          (fun o -> Q.equal (Linexpr.eval aw o) (Linexpr.eval ac o))
          objectives
        && List.for_all (Constr.holds aw) constraints
        && List.for_all (fun v -> Q.is_integer (aw v)) integer_vars)

let prop_warm_minimize_matches_cold =
  QCheck2.Test.make ~name:"warm minimize matches cold reference" ~count:1000
    ilp_case_gen
    (fun (box, extra, objectives, n_int) ->
      let constraints = box @ extra in
      let objective = List.hd objectives in
      let integer_vars = List.filteri (fun i _ -> i <= n_int) [ "x"; "y"; "z" ] in
      let warm = Ilp.minimize ~constraints ~integer_vars objective in
      let cold = Ilp.minimize_cold ~constraints ~integer_vars objective in
      match (warm, cold) with
      | None, None -> true
      | Some _, None | None, Some _ -> false
      | Some (vw, aw), Some (vc, _) ->
        Q.equal vw vc
        && Q.equal (Linexpr.eval aw objective) vw
        && List.for_all (Constr.holds aw) constraints
        && List.for_all (fun v -> Q.is_integer (aw v)) integer_vars)

(* ------------------------------------------------------------------ *)
(* Box bounds and batched constraint addition                           *)
(* ------------------------------------------------------------------ *)

(* Random box systems: every row bounds one variable, with coefficients
   other than +-1 (fractional bounds), equalities, one-sided and missing
   bounds, and sometimes an empty box on an extra variable.  Each
   variable's [Polyhedron.minimum]/[maximum] must be exactly the
   simplex's answer on the same rows, reached without an LP. *)
let box_system_gen =
  QCheck2.Gen.(
    let* nv = int_range 1 3 in
    let vars = List.init nv (Printf.sprintf "b%d") in
    let row v =
      let* kind = frequency [ (4, pure Constr.Ge); (1, pure Constr.Eq) ] in
      let* a = oneofl [ -3; -2; -1; 1; 2; 3 ] in
      let+ k = int_range (-6) 6 in
      { Constr.expr = le [ (a, v) ] k; kind }
    in
    let* rows = flatten_l (List.map (fun v -> list_size (int_range 0 3) (row v)) vars) in
    let* empty_box =
      frequency
        [ (4, pure []); (1, pure [ Constr.lower_bound "w" 3; Constr.upper_bound "w" 1 ]) ]
    in
    let* cs = shuffle_l (List.concat rows @ empty_box) in
    let+ a = oneofl [ -2; 1; 3 ] and+ k = int_range (-2) 2 in
    (cs, vars @ [ "w"; "absent" ], (a, k)))

let print_box (cs, _, (a, k)) =
  String.concat "; " (List.map Constr.to_string cs) ^ Printf.sprintf " | obj %d*v + %d" a k

let same_optimum poly simplex =
  match (poly, simplex) with
  | `Empty, Simplex.Infeasible | `Unbounded, Simplex.Unbounded -> true
  | `Value v, Simplex.Optimal (w, _) -> Q.equal v w
  | _ -> false

let simplex_solves () = Obs.Counters.find "simplex.solves"

let prop_box_bounds_match_simplex =
  QCheck2.Test.make ~name:"box bounds equal the simplex optimum, without an LP" ~count:500
    ~print:print_box box_system_gen
    (fun (cs, vars, (a, k)) ->
      let p = Polyhedron.of_constraints cs in
      List.for_all
        (fun v ->
          let obj = le [ (a, v) ] k in
          let before = simplex_solves () in
          let lo = Polyhedron.minimum p obj and hi = Polyhedron.maximum p obj in
          simplex_solves () = before
          && same_optimum lo (Simplex.minimize cs obj)
          && same_optimum hi (Simplex.maximize cs obj))
        vars)

let test_non_box_reaches_simplex () =
  (* x + y <= 4 couples two variables: not a box, so one LP each way *)
  let p =
    Polyhedron.of_constraints
      [ Constr.lower_bound "x" 0; Constr.lower_bound "y" 1;
        Constr.ge0 (le [ (-1, "x"); (-1, "y") ] 4) ]
  in
  let before = simplex_solves () in
  (match Polyhedron.maximum p (Linexpr.var "x") with
   | `Value v -> check_q "max x" (q 3) v
   | _ -> Alcotest.fail "expected a bounded maximum");
  (match Polyhedron.minimum p (Linexpr.var "x") with
   | `Value v -> check_q "min x" Q.zero v
   | _ -> Alcotest.fail "expected a bounded minimum");
  Alcotest.(check int) "two LPs" 2 (simplex_solves () - before)

(* [add_constraints] against the one-at-a-time fold, on sets whose rows
   are out of order (renamed) and with added rows that are duplicates,
   trivially true or contradictory. *)
let add_constraints_gen =
  QCheck2.Gen.(
    let vars = [ "u"; "v"; "x" ] in
    let row =
      let* kind = frequency [ (3, pure Constr.Ge); (1, pure Constr.Eq) ] in
      let* coefs = list_repeat 3 (int_range (-2) 2) in
      let+ k = int_range (-3) 3 in
      { Constr.expr = le (List.combine coefs vars) k; kind }
    in
    let contradiction = Constr.ge0 (Linexpr.const_int (-1)) in
    let* base = list_size (int_range 0 5) row in
    let* rename = bool in
    let* added = list_size (int_range 0 5) row in
    let* contra = frequency [ (4, pure []); (1, pure [ contradiction ]) ] in
    let+ added = shuffle_l (contra @ added) in
    (base, rename, added))

let print_added (base, rename, added) =
  Printf.sprintf "%s | rename %b | add %s"
    (String.concat "; " (List.map Constr.to_string base))
    rename
    (String.concat "; " (List.map Constr.to_string added))

let prop_add_constraints_matches_fold =
  QCheck2.Test.make ~name:"add_constraints = fold add_constraint" ~count:500
    ~print:print_added add_constraints_gen
    (fun (base, rename, added) ->
      let p = Polyhedron.of_constraints base in
      (* renaming keeps rows in the old variables' order *)
      let p = if rename then Polyhedron.rename (function "u" -> "z" | v -> v) p else p in
      Polyhedron.equal_syntactic
        (Polyhedron.add_constraints p added)
        (List.fold_left Polyhedron.add_constraint p added))

(* ------------------------------------------------------------------ *)
(* The solver memo: answers inside a scope equal fresh solves           *)
(* ------------------------------------------------------------------ *)

let memo_hits () = Obs.Counters.find "simplex.memo_hits"
let fm_hits () = Obs.Counters.find "fm.memo_hits"

(* An answer rendered as text, assignments read on every variable of the
   system plus one it does not mention; a raised [Contradiction] is an
   answer too. *)
let render_lp vars = function
  | Simplex.Infeasible -> "infeasible"
  | Simplex.Unbounded -> "unbounded"
  | Simplex.Optimal (v, a) ->
    String.concat " " (Q.to_string v :: List.map (fun x -> Q.to_string (a x)) vars)

let render_fm f =
  match f () with
  | cs -> String.concat "; " (List.map Constr.to_string cs)
  | exception Fourier_motzkin.Contradiction -> "contradiction"

(* Every leaf the memo sits in front of, and the queries built on them. *)
let answers (cs, obj) =
  let vars = List.sort_uniq String.compare (List.concat_map Constr.vars cs) in
  let probe = vars @ [ "unmentioned" ] in
  [ render_lp probe (Simplex.minimize cs obj);
    render_lp probe (Simplex.maximize cs obj);
    (match Simplex.feasible_point cs with
     | None -> "none"
     | Some a -> render_lp probe (Simplex.Optimal (Q.zero, a)));
    string_of_bool (Simplex.is_feasible cs);
    render_fm (fun () -> Fourier_motzkin.simplify cs);
    render_fm (fun () -> Fourier_motzkin.eliminate_all vars cs);
    render_fm (fun () -> Fourier_motzkin.eliminate_all (List.rev vars) cs);
    string_of_bool (Polyhedron.is_empty (Polyhedron.of_constraints cs))
  ]

let rotate = function [] -> [] | c :: rest -> rest @ [ c ]

let prop_memo_matches_fresh =
  QCheck2.Test.make ~name:"answers in a scope equal fresh solves, repeats and permutations too"
    ~count:300 ~print:print_system mixed_system_gen
    (fun (cs, obj) ->
      let orders = [ cs; List.rev cs; rotate cs ] in
      let fresh = List.map (fun cs -> answers (cs, obj)) orders in
      Polyhedra.Solver_memo.scoped (fun () ->
          let first = List.map (fun cs -> answers (cs, obj)) orders in
          let solves = simplex_solves () and hits = memo_hits () in
          let again = List.map (fun cs -> answers (cs, obj)) orders in
          first = fresh && again = fresh
          && simplex_solves () = solves
          && memo_hits () > hits))

let lp_kinds =
  let x = Linexpr.var "x" in
  [ ("optimal", [ Constr.lower_bound "x" 1; Constr.upper_bound "x" 4 ], x);
    ("infeasible", [ Constr.lower_bound "x" 3; Constr.upper_bound "x" 1 ], x);
    ("unbounded", [ Constr.upper_bound "x" 4 ], x);
    ("contradictory", [ Constr.ge0 (Linexpr.const_int (-1)); Constr.lower_bound "x" 0 ], x)
  ]

let test_memo_every_kind () =
  List.iter
    (fun (kind, cs, obj) ->
      let fresh = answers (cs, obj) in
      Polyhedra.Solver_memo.scoped (fun () ->
          Alcotest.(check (list string)) (kind ^ ": first") fresh (answers (cs, obj));
          let solves = simplex_solves () and hits = memo_hits () and fm = fm_hits () in
          Alcotest.(check (list string)) (kind ^ ": repeated") fresh (answers (cs, obj));
          Alcotest.(check int) (kind ^ ": no LP solved again") solves (simplex_solves ());
          Alcotest.(check bool) (kind ^ ": LPs answered by the memo") true (memo_hits () > hits);
          Alcotest.(check bool) (kind ^ ": FM answered by the memo") true (fm_hits () > fm)))
    lp_kinds;
  (* the contradiction is raised again on a hit, not turned into a value *)
  let contradictory = [ Constr.lower_bound "x" 0; Constr.eq0 (Linexpr.const_int 2) ] in
  Polyhedra.Solver_memo.scoped (fun () ->
      for _ = 1 to 2 do
        Alcotest.check_raises "simplify raises" Fourier_motzkin.Contradiction (fun () ->
            ignore (Fourier_motzkin.simplify contradictory));
        Alcotest.check_raises "eliminate_all raises" Fourier_motzkin.Contradiction (fun () ->
            ignore (Fourier_motzkin.eliminate_all [ "x" ] contradictory))
      done)

let lp_a = ([ Constr.lower_bound "x" 1; Constr.ge0 (le [ (-1, "x"); (-1, "y") ] 6) ], le [ (1, "x"); (-1, "y") ] 0)
let lp_b = ([ Constr.lower_bound "y" 2 ], Linexpr.var "y")

(* [solve lp] reports whether it reached the simplex ([true]) or the memo. *)
let solved (cs, obj) =
  let solves = simplex_solves () and hits = memo_hits () in
  ignore (Simplex.minimize cs obj);
  let solved = simplex_solves () - solves and hit = memo_hits () - hits in
  Alcotest.(check int) "one LP or one hit" 1 (solved + hit);
  solved = 1

let test_memo_scopes () =
  Alcotest.(check bool) "outside: solved" true (solved lp_a);
  Alcotest.(check bool) "outside: solved again" true (solved lp_a);
  Polyhedra.Solver_memo.scoped (fun () ->
      Alcotest.(check bool) "outer: solved" true (solved lp_a);
      Alcotest.(check bool) "outer: memoized" false (solved lp_a);
      Polyhedra.Solver_memo.scoped (fun () ->
          Alcotest.(check bool) "nested scope is fresh" true (solved lp_a);
          Alcotest.(check bool) "inner: solved" true (solved lp_b);
          Alcotest.(check bool) "inner: memoized" false (solved lp_b));
      Alcotest.(check bool) "outer restored" false (solved lp_a);
      Alcotest.(check bool) "inner table dropped" true (solved lp_b);
      (match
         Polyhedra.Solver_memo.scoped (fun () ->
             ignore (solved lp_a);
             failwith "inside")
       with
       | () -> Alcotest.fail "expected the exception"
       | exception Failure _ -> ());
      Alcotest.(check bool) "outer restored after an exception" false (solved lp_a));
  (* a scope entered again keeps its tables, and is off between entries *)
  let s = Polyhedra.Solver_memo.fresh () in
  let within () = Polyhedra.Solver_memo.within s (fun () -> solved lp_b) in
  Alcotest.(check bool) "first entry: solved" true (within ());
  Alcotest.(check bool) "between entries: solved" true (solved lp_b);
  Alcotest.(check bool) "second entry: memoized" false (within ());
  let hits = memo_hits () and fm = fm_hits () in
  ignore (answers lp_a);
  ignore (answers lp_a);
  Alcotest.(check int) "no LP memoized outside a scope" hits (memo_hits ());
  Alcotest.(check int) "no FM call memoized outside a scope" fm (fm_hits ())

(* [f]'s result with the counter deltas it made, sorted by name: read
   inside a capture, which is dropped unmerged *)
let counter_deltas f =
  fst
    (Obs.scoped (fun () ->
         let before = Obs.Counters.snapshot () in
         let r = f () in
         let moved (n, v) =
           let d = v - Option.value ~default:0 (List.assoc_opt n before) in
           if d <> 0 then Some (n, d) else None
         in
         (r, List.filter_map moved (Obs.Counters.snapshot ()))))

(* Each domain opens its own scope over the same systems: the answers and
   the counter deltas agree with each other and with this domain's. *)
let test_memo_two_domains () =
  let systems =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 27 |]) ~n:40 mixed_system_gen
  in
  let run () =
    counter_deltas (fun () ->
        Polyhedra.Solver_memo.scoped (fun () ->
            List.concat_map (fun s -> answers s @ answers s) systems))
  in
  let domains = List.init 2 (fun _ -> Domain.spawn run) in
  let here = run () in
  let answers_of (a, _) = a and deltas_of (_, d) = d in
  List.iter
    (fun d ->
      let r = Domain.join d in
      Alcotest.(check (list string)) "same answers" (answers_of here) (answers_of r);
      Alcotest.(check (list (pair string int))) "same counters" (deltas_of here) (deltas_of r))
    domains;
  Alcotest.(check bool) "the memo answered" true
    (List.assoc_opt "simplex.memo_hits" (deltas_of here) <> None)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "polyhedron"
    [ ( "linexpr",
        [ Alcotest.test_case "algebra" `Quick test_linexpr_algebra;
          Alcotest.test_case "subst/eval" `Quick test_linexpr_subst_eval;
          Alcotest.test_case "rename" `Quick test_linexpr_rename
        ] );
      ( "simplex",
        [ Alcotest.test_case "basic min" `Quick test_simplex_basic_min;
          Alcotest.test_case "max over polytope" `Quick test_simplex_max_over_polytope;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "equalities" `Quick test_simplex_equalities;
          Alcotest.test_case "negative solution" `Quick test_simplex_negative_solution;
          Alcotest.test_case "fractional vertex" `Quick test_simplex_fractional_vertex;
          Alcotest.test_case "redundant rows" `Quick test_simplex_redundant_rows
        ] );
      qsuite "simplex-props" [ prop_simplex_sound; prop_feasibility_matches_fm ];
      qsuite "lp-oracle" [ prop_lp_matches_vertex_oracle ];
      ( "fourier-motzkin",
        [ Alcotest.test_case "interval projection" `Quick test_fm_projection_interval;
          Alcotest.test_case "empty detection" `Quick test_fm_empty_detection;
          Alcotest.test_case "membership" `Quick test_polyhedron_membership
        ] );
      qsuite "fm-props" [ prop_fm_projection_sound; prop_fm_projection_tight ];
      ( "box-bounds",
        [ Alcotest.test_case "non-box reaches the simplex" `Quick
            test_non_box_reaches_simplex
        ] );
      qsuite "batch-props"
        [ prop_box_bounds_match_simplex; prop_add_constraints_matches_fold ];
      ( "ilp",
        [ Alcotest.test_case "rounds up" `Quick test_ilp_rounds_up;
          Alcotest.test_case "knapsackish" `Quick test_ilp_knapsackish;
          Alcotest.test_case "integer infeasible" `Quick test_ilp_infeasible;
          Alcotest.test_case "lexmin" `Quick test_ilp_lexmin;
          Alcotest.test_case "lexmin order" `Quick test_ilp_lexmin_order_matters
        ] );
      qsuite "ilp-props" [ prop_ilp_dominates_grid ];
      ( "tableau",
        [ Alcotest.test_case "matches one-shot solver" `Quick
            test_tableau_matches_oneshot;
          Alcotest.test_case "dantzig pivots less than bland" `Quick
            test_pivot_rule_counts;
          Alcotest.test_case "no rows, then a push" `Quick test_tableau_without_rows
        ] );
      qsuite "tableau-props" [ prop_parent_intact ];
      qsuite "warm-vs-cold"
        [ prop_warm_matches_cold; prop_warm_minimize_matches_cold ];
      ( "solver-memo",
        [ Alcotest.test_case "every answer kind" `Quick test_memo_every_kind;
          Alcotest.test_case "scopes nest, restore and stay off outside" `Quick
            test_memo_scopes;
          Alcotest.test_case "two domains, deterministic counters" `Quick
            test_memo_two_domains
        ] );
      qsuite "memo-props" [ prop_memo_matches_fresh ]
    ]
