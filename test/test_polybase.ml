(* Tests for the exact-arithmetic substrate: Bigint, Q, Linalg. *)

open Polybase

let bi = Bigint.of_int
let check_bi msg expected actual =
  Alcotest.(check string) msg expected (Bigint.to_string actual)

(* ------------------------------------------------------------------ *)
(* Bigint unit tests                                                    *)
(* ------------------------------------------------------------------ *)

let test_bigint_basics () =
  check_bi "zero" "0" Bigint.zero;
  check_bi "small" "42" (bi 42);
  check_bi "negative" "-42" (bi (-42));
  check_bi "add" "100" (Bigint.add (bi 58) (bi 42));
  check_bi "add mixed signs" "-16" (Bigint.add (bi (-58)) (bi 42));
  check_bi "sub" "16" (Bigint.sub (bi 58) (bi 42));
  check_bi "mul" "-2436" (Bigint.mul (bi 58) (bi (-42)));
  Alcotest.(check int) "compare" (-1) (Bigint.compare (bi 3) (bi 7));
  Alcotest.(check int) "sign neg" (-1) (Bigint.sign (bi (-9)));
  Alcotest.(check bool) "equal" true (Bigint.equal (bi 5) (bi 5))

let test_bigint_large () =
  let a = Bigint.of_string "123456789012345678901234567890" in
  let b = Bigint.of_string "987654321098765432109876543210" in
  check_bi "large add" "1111111110111111111011111111100" (Bigint.add a b);
  check_bi "large mul" "121932631137021795226185032733622923332237463801111263526900"
    (Bigint.mul a b);
  check_bi "string roundtrip" "123456789012345678901234567890" a;
  let q, r = Bigint.divmod b a in
  check_bi "large div q" "8" q;
  check_bi "large div r" "9000000000900000000090" r;
  Alcotest.(check bool) "reconstruct" true
    (Bigint.equal b (Bigint.add (Bigint.mul q a) r))

let test_bigint_division_signs () =
  (* Euclidean convention: 0 <= r < |b| *)
  let cases = [ (7, 2); (-7, 2); (7, -2); (-7, -2); (6, 3); (-6, 3) ] in
  let check_case (a, b) =
    let q, r = Bigint.divmod (bi a) (bi b) in
    Alcotest.(check bool)
      (Printf.sprintf "euclid %d %d" a b)
      true
      (Bigint.sign r >= 0
       && Bigint.compare r (Bigint.abs (bi b)) < 0
       && Bigint.equal (bi a) (Bigint.add (Bigint.mul q (bi b)) r))
  in
  List.iter check_case cases

let test_bigint_fdiv_cdiv () =
  Alcotest.(check int) "fdiv 7/2" 3 (Bigint.to_int (Bigint.fdiv (bi 7) (bi 2)));
  Alcotest.(check int) "fdiv -7/2" (-4) (Bigint.to_int (Bigint.fdiv (bi (-7)) (bi 2)));
  Alcotest.(check int) "cdiv 7/2" 4 (Bigint.to_int (Bigint.cdiv (bi 7) (bi 2)));
  Alcotest.(check int) "cdiv -7/2" (-3) (Bigint.to_int (Bigint.cdiv (bi (-7)) (bi 2)))

let test_bigint_gcd () =
  Alcotest.(check int) "gcd" 6 (Bigint.to_int (Bigint.gcd (bi 12) (bi 18)));
  Alcotest.(check int) "gcd neg" 6 (Bigint.to_int (Bigint.gcd (bi (-12)) (bi 18)));
  Alcotest.(check int) "gcd zero" 7 (Bigint.to_int (Bigint.gcd (bi 0) (bi 7)));
  Alcotest.(check int) "lcm" 36 (Bigint.to_int (Bigint.lcm (bi 12) (bi 18)))

(* ------------------------------------------------------------------ *)
(* Bigint property tests                                                *)
(* ------------------------------------------------------------------ *)

let int_1m = QCheck2.Gen.int_range (-1_000_000) 1_000_000

let prop_add_matches_int =
  QCheck2.Test.make ~name:"bigint add matches int" ~count:500
    QCheck2.Gen.(pair int_1m int_1m)
    (fun (a, b) -> Bigint.to_int (Bigint.add (bi a) (bi b)) = a + b)

let prop_mul_matches_int =
  QCheck2.Test.make ~name:"bigint mul matches int" ~count:500
    QCheck2.Gen.(pair int_1m int_1m)
    (fun (a, b) -> Bigint.to_int (Bigint.mul (bi a) (bi b)) = a * b)

let prop_divmod_roundtrip =
  QCheck2.Test.make ~name:"bigint divmod roundtrip" ~count:500
    QCheck2.Gen.(pair int_1m (int_range 1 100_000))
    (fun (a, b) ->
      let q, r = Bigint.divmod (bi a) (bi b) in
      Bigint.equal (bi a) (Bigint.add (Bigint.mul q (bi b)) r)
      && Bigint.sign r >= 0
      && Bigint.compare r (bi b) < 0)

let prop_string_roundtrip =
  QCheck2.Test.make ~name:"bigint string roundtrip" ~count:500
    QCheck2.Gen.(list_size (int_range 1 40) (int_range 0 9))
    (fun digits ->
      let s = String.concat "" (List.map string_of_int digits) in
      let s = if String.length s > 1 then "1" ^ s else s in
      Bigint.to_string (Bigint.of_string s) = s)

let prop_mul_big_assoc =
  QCheck2.Test.make ~name:"bigint mul associative on big operands" ~count:200
    QCheck2.Gen.(triple int_1m int_1m int_1m)
    (fun (a, b, c) ->
      let big x = Bigint.mul (bi x) (Bigint.of_string "1000000000000000000001") in
      Bigint.equal
        (Bigint.mul (Bigint.mul (big a) (big b)) (big c))
        (Bigint.mul (big a) (Bigint.mul (big b) (big c))))

(* ------------------------------------------------------------------ *)
(* Q tests                                                              *)
(* ------------------------------------------------------------------ *)

let test_q_normalization () =
  Alcotest.(check string) "2/4 = 1/2" "1/2" (Q.to_string (Q.of_ints 2 4));
  Alcotest.(check string) "neg den" "-1/2" (Q.to_string (Q.of_ints 1 (-2)));
  Alcotest.(check string) "integer" "3" (Q.to_string (Q.of_ints 6 2));
  Alcotest.(check string) "zero" "0" (Q.to_string (Q.of_ints 0 7))

let test_q_arith () =
  let open Q.Infix in
  Alcotest.(check bool) "1/2 + 1/3 = 5/6" true (Q.of_ints 1 2 +/ Q.of_ints 1 3 =/ Q.of_ints 5 6);
  Alcotest.(check bool) "1/2 * 2/3 = 1/3" true (Q.of_ints 1 2 */ Q.of_ints 2 3 =/ Q.of_ints 1 3);
  Alcotest.(check bool) "(1/2) / (3/4) = 2/3" true (Q.of_ints 1 2 // Q.of_ints 3 4 =/ Q.of_ints 2 3);
  Alcotest.(check bool) "ordering" true (Q.of_ints 1 3 </ Q.of_ints 1 2)

let test_q_floor_ceil () =
  Alcotest.(check int) "floor 7/2" 3 (Bigint.to_int (Q.floor (Q.of_ints 7 2)));
  Alcotest.(check int) "floor -7/2" (-4) (Bigint.to_int (Q.floor (Q.of_ints (-7) 2)));
  Alcotest.(check int) "ceil 7/2" 4 (Bigint.to_int (Q.ceil (Q.of_ints 7 2)));
  Alcotest.(check int) "ceil -7/2" (-3) (Bigint.to_int (Q.ceil (Q.of_ints (-7) 2)));
  Alcotest.(check int) "floor int" 5 (Bigint.to_int (Q.floor (Q.of_int 5)))

let nonzero_small = QCheck2.Gen.(map (fun n -> if n = 0 then 1 else n) (int_range (-1000) 1000))
let q_gen = QCheck2.Gen.(map (fun (n, d) -> Q.of_ints n d) (pair (int_range (-1000) 1000) nonzero_small))

let prop_q_field =
  QCheck2.Test.make ~name:"q field laws" ~count:300
    QCheck2.Gen.(triple q_gen q_gen q_gen)
    (fun (a, b, c) ->
      let open Q.Infix in
      (a +/ b =/ b +/ a)
      && ((a +/ b) +/ c =/ a +/ (b +/ c))
      && (a */ (b +/ c) =/ (a */ b) +/ (a */ c))
      && (a -/ a =/ Q.zero)
      && (Q.is_zero a || a */ Q.inv a =/ Q.one))

let prop_q_floor_bound =
  QCheck2.Test.make ~name:"q floor/ceil bounds" ~count:300 q_gen
    (fun a ->
      let open Q.Infix in
      let f = Q.of_bigint (Q.floor a) and c = Q.of_bigint (Q.ceil a) in
      f <=/ a && a <=/ c && c -/ f </ Q.of_int 2)

(* ------------------------------------------------------------------ *)
(* Linalg tests                                                         *)
(* ------------------------------------------------------------------ *)

let test_linalg_rref_rank () =
  let m = Linalg.mat_of_ints [| [| 1; 2; 3 |]; [| 2; 4; 6 |]; [| 1; 0; 1 |] |] in
  Alcotest.(check int) "rank" 2 (Linalg.rank m);
  Alcotest.(check int) "rank identity" 3 (Linalg.rank (Linalg.identity 3));
  Alcotest.(check int) "rank zero" 0 (Linalg.rank (Linalg.zeros 2 4))

let test_linalg_inverse () =
  let m = Linalg.mat_of_ints [| [| 2; 1 |]; [| 1; 1 |] |] in
  (match Linalg.inverse m with
   | None -> Alcotest.fail "expected invertible"
   | Some inv ->
     let prod = Linalg.mat_mul m inv in
     Alcotest.(check bool) "m * m^-1 = I" true
       (Array.for_all2 Linalg.vec_equal prod (Linalg.identity 2)));
  let sing = Linalg.mat_of_ints [| [| 1; 2 |]; [| 2; 4 |] |] in
  Alcotest.(check bool) "singular" true (Linalg.inverse sing = None)

let test_linalg_solve () =
  let a = Linalg.mat_of_ints [| [| 1; 1 |]; [| 1; -1 |] |] in
  let b = Linalg.vec_of_ints [| 4; 2 |] in
  (match Linalg.solve a b with
   | None -> Alcotest.fail "expected solution"
   | Some x ->
     Alcotest.(check bool) "a x = b" true (Linalg.vec_equal (Linalg.mat_vec a x) b);
     Alcotest.(check bool) "x = (3,1)" true (Linalg.vec_equal x (Linalg.vec_of_ints [| 3; 1 |])));
  let inconsistent = Linalg.mat_of_ints [| [| 1; 1 |]; [| 1; 1 |] |] in
  Alcotest.(check bool) "inconsistent" true
    (Linalg.solve inconsistent (Linalg.vec_of_ints [| 1; 2 |]) = None)

let test_linalg_nullspace () =
  let m = Linalg.mat_of_ints [| [| 1; 2; 3 |] |] in
  let ns = Linalg.nullspace m in
  Alcotest.(check int) "nullspace dim" 2 (List.length ns);
  List.iter
    (fun v ->
      Alcotest.(check bool) "in kernel" true (Linalg.vec_is_zero (Linalg.mat_vec m v)))
    ns;
  Alcotest.(check int) "full rank nullspace empty" 0
    (List.length (Linalg.nullspace (Linalg.identity 3)))

let test_linalg_row_space () =
  let m = Linalg.mat_of_ints [| [| 1; 0; 1 |]; [| 0; 1; 1 |] |] in
  Alcotest.(check bool) "sum of rows" true
    (Linalg.row_space_contains m (Linalg.vec_of_ints [| 1; 1; 2 |]));
  Alcotest.(check bool) "independent vector" false
    (Linalg.row_space_contains m (Linalg.vec_of_ints [| 0; 0; 1 |]))

let test_linalg_integerize () =
  let v = [| Q.of_ints 1 2; Q.of_ints 1 3; Q.zero |] in
  let w = Linalg.integerize v in
  Alcotest.(check bool) "integerized" true
    (Linalg.vec_equal w (Linalg.vec_of_ints [| 3; 2; 0 |]))

let rand_mat_gen =
  QCheck2.Gen.(
    let dim = int_range 1 5 in
    pair dim dim >>= fun (r, c) ->
    list_size (return (r * c)) (int_range (-5) 5) >|= fun entries ->
    let a = Array.of_list entries in
    Array.init r (fun i -> Array.init c (fun j -> Q.of_int a.((i * c) + j))))

let prop_inverse_correct =
  QCheck2.Test.make ~name:"inverse is two-sided when it exists" ~count:200
    rand_mat_gen
    (fun m ->
      let r, c = Linalg.dims m in
      if r <> c then true
      else
        match Linalg.inverse m with
        | None -> Linalg.rank m < r
        | Some inv ->
          let id = Linalg.identity r in
          Array.for_all2 Linalg.vec_equal (Linalg.mat_mul m inv) id
          && Array.for_all2 Linalg.vec_equal (Linalg.mat_mul inv m) id)

let prop_nullspace_dim =
  QCheck2.Test.make ~name:"rank-nullity" ~count:200 rand_mat_gen
    (fun m ->
      let _, c = Linalg.dims m in
      Linalg.rank m + List.length (Linalg.nullspace m) = c)

let prop_solve_consistent =
  QCheck2.Test.make ~name:"solve returns a genuine solution" ~count:200
    QCheck2.Gen.(pair rand_mat_gen (list_size (int_range 1 5) (int_range (-5) 5)))
    (fun (m, bl) ->
      let r, _ = Linalg.dims m in
      let b = Array.init r (fun i -> Q.of_int (List.nth bl (i mod List.length bl))) in
      match Linalg.solve m b with
      | None -> true
      | Some x -> Linalg.vec_equal (Linalg.mat_vec m x) b)

(* ------------------------------------------------------------------ *)
(* Differential tests: Q's small-native fast path vs a pure-Bigint      *)
(* reference.  Operands are drawn around the fast-path bound (2^30) and *)
(* the native-int limits, where promotion/demotion and the no-overflow  *)
(* argument of the small case are most likely to break.                 *)
(* ------------------------------------------------------------------ *)

let interesting_int =
  let open QCheck2.Gen in
  let sb = 1 lsl 30 in
  oneof
    [ int_range (-64) 64;
      map (fun d -> sb + d) (int_range (-3) 3);
      map (fun d -> -sb + d) (int_range (-3) 3);
      map (fun d -> max_int - d) (int_range 0 3);
      map (fun d -> -(max_int - d)) (int_range 0 3);
      int_range (-1_000_000_000_000) 1_000_000_000_000
    ]

let nonzero g = QCheck2.Gen.map (fun n -> if n = 0 then 1 else n) g

let rat_pair_gen =
  QCheck2.Gen.quad interesting_int (nonzero interesting_int) interesting_int
    (nonzero interesting_int)

(* Constructed through the Bigint normalization path, independent of the
   native shortcuts in [Q.of_ints] and the arithmetic under test. *)
let mkq n d = Q.make (bi n) (bi d)

(* Agreement both by [Q.equal] (which relies on the canonical-form
   invariant) and by decimal rendering (which does not). *)
let same_q a b = Q.equal a b && String.equal (Q.to_string a) (Q.to_string b)

(* The native rendering prints what the Bigint one prints, on both sides
   of the small bound. *)
let prop_q_to_string =
  QCheck2.Test.make ~name:"to_string matches the bigint rendering" ~count:2000
    QCheck2.Gen.(pair interesting_int (nonzero interesting_int))
    (fun (n, d) ->
      let x = mkq n d in
      let reference =
        if Q.is_integer x then Bigint.to_string (Q.num x)
        else Bigint.to_string (Q.num x) ^ "/" ^ Bigint.to_string (Q.den x)
      in
      String.equal (Q.to_string x) reference)

let prop_q_fastpath_field_ops =
  QCheck2.Test.make ~name:"fast path matches bigint reference (+ - * /)"
    ~count:2000 rat_pair_gen
    (fun (n1, d1, n2, d2) ->
      let a = mkq n1 d1 and b = mkq n2 d2 in
      let bn1 = bi n1 and bd1 = bi d1 and bn2 = bi n2 and bd2 = bi d2 in
      let radd =
        Q.make
          (Bigint.add (Bigint.mul bn1 bd2) (Bigint.mul bn2 bd1))
          (Bigint.mul bd1 bd2)
      in
      let rsub =
        Q.make
          (Bigint.sub (Bigint.mul bn1 bd2) (Bigint.mul bn2 bd1))
          (Bigint.mul bd1 bd2)
      in
      let rmul = Q.make (Bigint.mul bn1 bn2) (Bigint.mul bd1 bd2) in
      same_q (Q.add a b) radd
      && same_q (Q.sub a b) rsub
      && same_q (Q.mul a b) rmul
      && (n2 = 0
          || same_q (Q.div a b) (Q.make (Bigint.mul bn1 bd2) (Bigint.mul bd1 bn2)))
      && same_q (Q.of_ints n1 d1) a)

let prop_q_fastpath_compare =
  QCheck2.Test.make ~name:"fast path matches bigint reference (compare/equal)"
    ~count:2000 rat_pair_gen
    (fun (n1, d1, n2, d2) ->
      let a = mkq n1 d1 and b = mkq n2 d2 in
      let reference =
        Bigint.compare
          (Bigint.mul (Q.num a) (Q.den b))
          (Bigint.mul (Q.num b) (Q.den a))
      in
      Q.compare a b = reference
      && Q.equal a b = (reference = 0)
      && Q.compare a a = 0
      && Q.equal a a)

let prop_q_fastpath_floor_ceil =
  QCheck2.Test.make ~name:"fast path matches bigint reference (floor/ceil)"
    ~count:2000
    (QCheck2.Gen.pair interesting_int (nonzero interesting_int))
    (fun (n, d) ->
      let x = mkq n d in
      Bigint.equal (Q.floor x) (Bigint.fdiv (Q.num x) (Q.den x))
      && Bigint.equal (Q.ceil x) (Bigint.cdiv (Q.num x) (Q.den x)))

let test_q_to_float_large () =
  let huge = Bigint.of_string "100000000000000000000000000000000000000000" in
  (* (huge + 1) / huge does not reduce, and both components overflow a
     native int: the scaled conversion must still land at ~1.0 *)
  let x = Q.make (Bigint.add_int huge 1) huge in
  Alcotest.(check bool) "balanced huge fraction" true
    (Float.abs (Q.to_float x -. 1.0) < 1e-9);
  let y = Q.make (Bigint.mul_int huge 7) (Bigint.mul_int (Bigint.add_int huge 3) 2) in
  Alcotest.(check bool) "7/2 of huge components" true
    (Float.abs (Q.to_float y -. 3.5) < 1e-9);
  let p100 = Bigint.mul (Bigint.of_string "1267650600228229401496703205376") Bigint.one in
  Alcotest.(check (float 1e-6)) "2^100" (Float.pow 2.0 100.0)
    (Q.to_float (Q.of_bigint p100));
  Alcotest.(check (float 0.0)) "small exact" 0.25 (Q.to_float (Q.of_ints 1 4))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "polybase"
    [ ( "bigint",
        [ Alcotest.test_case "basics" `Quick test_bigint_basics;
          Alcotest.test_case "large" `Quick test_bigint_large;
          Alcotest.test_case "division signs" `Quick test_bigint_division_signs;
          Alcotest.test_case "fdiv/cdiv" `Quick test_bigint_fdiv_cdiv;
          Alcotest.test_case "gcd/lcm" `Quick test_bigint_gcd
        ] );
      qsuite "bigint-props"
        [ prop_add_matches_int;
          prop_mul_matches_int;
          prop_divmod_roundtrip;
          prop_string_roundtrip;
          prop_mul_big_assoc
        ];
      ( "q",
        [ Alcotest.test_case "normalization" `Quick test_q_normalization;
          Alcotest.test_case "arithmetic" `Quick test_q_arith;
          Alcotest.test_case "floor/ceil" `Quick test_q_floor_ceil;
          Alcotest.test_case "to_float on large components" `Quick
            test_q_to_float_large
        ] );
      qsuite "q-props"
        [ prop_q_field;
          prop_q_floor_bound;
          prop_q_fastpath_field_ops;
          prop_q_fastpath_compare;
          prop_q_fastpath_floor_ceil;
          prop_q_to_string
        ];
      ( "linalg",
        [ Alcotest.test_case "rref/rank" `Quick test_linalg_rref_rank;
          Alcotest.test_case "inverse" `Quick test_linalg_inverse;
          Alcotest.test_case "solve" `Quick test_linalg_solve;
          Alcotest.test_case "nullspace" `Quick test_linalg_nullspace;
          Alcotest.test_case "row space" `Quick test_linalg_row_space;
          Alcotest.test_case "integerize" `Quick test_linalg_integerize
        ] );
      qsuite "linalg-props"
        [ prop_inverse_correct; prop_nullspace_dim; prop_solve_consistent ]
    ]
