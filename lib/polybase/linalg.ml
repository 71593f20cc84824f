type vec = Q.t array
type mat = Q.t array array

let vec_of_ints a = Array.map Q.of_int a

let mat_of_ints m =
  let r = Array.map vec_of_ints m in
  (match Array.length r with
   | 0 -> ()
   | _ ->
     let c = Array.length r.(0) in
     Array.iter (fun row -> if Array.length row <> c then invalid_arg "Linalg.mat_of_ints: ragged") r);
  r

let zeros rows cols = Array.make_matrix rows cols Q.zero

let identity n =
  Array.init n (fun i -> Array.init n (fun j -> if i = j then Q.one else Q.zero))

let dims m =
  let rows = Array.length m in
  (rows, if rows = 0 then 0 else Array.length m.(0))

let transpose m =
  let rows, cols = dims m in
  Array.init cols (fun j -> Array.init rows (fun i -> m.(i).(j)))

let dot a b =
  if Array.length a <> Array.length b then invalid_arg "Linalg.dot: length mismatch";
  let acc = ref Q.zero in
  Array.iteri (fun i ai -> acc := Q.add !acc (Q.mul ai b.(i))) a;
  !acc

let mat_vec m v = Array.map (fun row -> dot row v) m

let mat_mul a b =
  let bt = transpose b in
  Array.map (fun row -> Array.map (dot row) bt) a

let vec_is_zero v = Array.for_all Q.is_zero v
let vec_equal a b = Array.length a = Array.length b && Array.for_all2 Q.equal a b

let copy_mat m = Array.map Array.copy m

(* Gauss-Jordan elimination to reduced row-echelon form. *)
let rref m =
  let m = copy_mat m in
  let rows, cols = dims m in
  let pivots = ref [] in
  let r = ref 0 in
  for c = 0 to cols - 1 do
    if !r < rows then begin
      (* find a pivot row *)
      let piv = ref (-1) in
      for i = !r to rows - 1 do
        if !piv = -1 && not (Q.is_zero m.(i).(c)) then piv := i
      done;
      if !piv >= 0 then begin
        let tmp = m.(!r) in
        m.(!r) <- m.(!piv);
        m.(!piv) <- tmp;
        let inv = Q.inv m.(!r).(c) in
        m.(!r) <- Array.map (Q.mul inv) m.(!r);
        for i = 0 to rows - 1 do
          if i <> !r && not (Q.is_zero m.(i).(c)) then begin
            let f = m.(i).(c) in
            m.(i) <- Array.mapi (fun j v -> Q.sub v (Q.mul f m.(!r).(j))) m.(i)
          end
        done;
        pivots := c :: !pivots;
        incr r
      end
    end
  done;
  (m, List.rev !pivots)

let rank m = List.length (snd (rref m))

let inverse m =
  let rows, cols = dims m in
  if rows <> cols then None
  else begin
    let aug = Array.init rows (fun i -> Array.append (Array.copy m.(i)) (identity rows).(i)) in
    let red, pivots = rref aug in
    if List.length pivots = rows && List.for_all (fun c -> c < rows) pivots then
      Some (Array.map (fun row -> Array.sub row rows rows) red)
    else None
  end

let solve a b =
  let rows, cols = dims a in
  if Array.length b <> rows then invalid_arg "Linalg.solve: dimension mismatch";
  let aug = Array.init rows (fun i -> Array.append (Array.copy a.(i)) [| b.(i) |]) in
  let red, pivots = rref aug in
  if List.exists (fun c -> c = cols) pivots then None
  else begin
    let x = Array.make cols Q.zero in
    List.iteri
      (fun r c -> x.(c) <- red.(r).(cols))
      pivots;
    Some x
  end

let integerize v =
  if vec_is_zero v then v
  else begin
    let l = Array.fold_left (fun acc q -> Bigint.lcm acc (Q.den q)) Bigint.one v in
    let ints = Array.map (fun q -> Bigint.div (Bigint.mul (Q.num q) l) (Q.den q)) v in
    let g = Array.fold_left (fun acc b -> Bigint.gcd acc b) Bigint.zero ints in
    Array.map (fun b -> Q.of_bigint (Bigint.div b g)) ints
  end

let nullspace m =
  let _, cols = dims m in
  let red, pivots = rref m in
  let is_pivot = Array.make cols false in
  List.iter (fun c -> is_pivot.(c) <- true) pivots;
  let basis = ref [] in
  for free = cols - 1 downto 0 do
    if not is_pivot.(free) then begin
      let v = Array.make cols Q.zero in
      v.(free) <- Q.one;
      List.iteri
        (fun r c -> v.(c) <- Q.neg red.(r).(free))
        pivots;
      basis := integerize v :: !basis
    end
  done;
  !basis

let row_space_contains m v =
  (* v in rowspace(m) iff rank unchanged when appending v *)
  let with_v = Array.append m [| v |] in
  rank m = rank with_v
