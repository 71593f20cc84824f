(* Exact rationals with a small-native-int fast path.

   Almost every number flowing through the polyhedral stack (tableau
   entries, Farkas multipliers, schedule coefficients) is a tiny fraction,
   so the representation is a two-case variant: [S (n, d)] carries native
   numerator/denominator, [B (n, d)] the arbitrary-precision fallback.

   The small case is kept within [-small_bound, small_bound] so that every
   intermediate of the arithmetic below — a cross product [n1 * d2], or a
   sum of two of them — fits a 63-bit native int with no overflow checks:
   |n|, d <= 2^30 gives products <= 2^60 and sums <= 2^61 < max_int.

   Canonical-form invariant (relied on by [equal] and [compare]): values
   are normalized (den > 0, gcd 1, zero is 0/1), and any value whose
   reduced components fit the small bound is in the [S] case; [B] holds
   only genuinely large rationals.  All constructors re-establish this. *)

type t =
  | S of int * int
  | B of Bigint.t * Bigint.t

let small_bound = 1 lsl 30

let zero = S (0, 1)
let one = S (1, 1)
let minus_one = S (-1, 1)

(* Non-negative gcd of non-negative native ints. *)
let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

let fits n = n >= -small_bound && n <= small_bound

(* [n] already reduced against [d = 1]. *)
let int_result n = if n = 0 then zero else if fits n then S (n, 1) else B (Bigint.of_int n, Bigint.one)

(* [d > 0], [gcd (|n|, d) = 1], [n <> 0]; box only when out of range. *)
let mk_small n d =
  if fits n && d <= small_bound then S (n, d) else B (Bigint.of_int n, Bigint.of_int d)

(* [d > 0], [n <> 0], not necessarily reduced; inputs within native range. *)
let norm_small n d =
  let g = gcd_int (abs n) d in
  mk_small (n / g) (d / g)

(* Normalized bigint components; demote to [S] when they fit. *)
let mk_big n d =
  match (Bigint.to_int_opt n, Bigint.to_int_opt d) with
  | Some n', Some d' when fits n' && d' <= small_bound ->
    if n' = 0 then zero else S (n', d')
  | _ -> B (n, d)

let make n d =
  if Bigint.is_zero d then raise Division_by_zero;
  if Bigint.is_zero n then zero
  else begin
    let n, d = if Bigint.sign d < 0 then (Bigint.neg n, Bigint.neg d) else (n, d) in
    let g = Bigint.gcd n d in
    mk_big (Bigint.div n g) (Bigint.div d g)
  end

let of_bigint n = mk_big n Bigint.one
let of_int n = if n = 0 then zero else if fits n then S (n, 1) else B (Bigint.of_int n, Bigint.one)

let of_ints n d =
  if d = 0 then raise Division_by_zero
  else if n = 0 then zero
  else if n = min_int || d = min_int then make (Bigint.of_int n) (Bigint.of_int d)
  else begin
    let n, d = if d < 0 then (-n, -d) else (n, d) in
    let g = gcd_int (abs n) d in
    let n = n / g and d = d / g in
    if fits n && d <= small_bound then S (n, d)
    else make (Bigint.of_int n) (Bigint.of_int d)
  end

let promote = function
  | S (n, d) -> (Bigint.of_int n, Bigint.of_int d)
  | B (n, d) -> (n, d)

let num = function S (n, _) -> Bigint.of_int n | B (n, _) -> n
let den = function S (_, d) -> Bigint.of_int d | B (_, d) -> d

let sign = function S (n, _) -> Stdlib.compare n 0 | B (n, _) -> Bigint.sign n
let is_zero = function S (n, _) -> n = 0 | B (n, _) -> Bigint.is_zero n
let is_integer = function S (_, d) -> d = 1 | B (_, d) -> Bigint.equal d Bigint.one

let neg = function S (n, d) -> S (-n, d) | B (n, d) -> B (Bigint.neg n, d)
let abs = function S (n, d) -> S (abs n, d) | B (n, d) -> B (Bigint.abs n, d)

let inv = function
  | S (0, _) -> raise Division_by_zero
  | S (n, d) -> if n > 0 then S (d, n) else S (-d, -n)
  | B (n, d) ->
    if Bigint.is_zero n then raise Division_by_zero
    else if Bigint.sign n > 0 then mk_big d n
    else mk_big (Bigint.neg d) (Bigint.neg n)

let add a b =
  match (a, b) with
  | S (n1, d1), S (n2, d2) ->
    if d1 = d2 then
      if d1 = 1 then int_result (n1 + n2)
      else begin
        let n = n1 + n2 in
        if n = 0 then zero else norm_small n d1
      end
    else begin
      let n = (n1 * d2) + (n2 * d1) in
      if n = 0 then zero else norm_small n (d1 * d2)
    end
  | _ ->
    let n1, d1 = promote a and n2, d2 = promote b in
    make (Bigint.add (Bigint.mul n1 d2) (Bigint.mul n2 d1)) (Bigint.mul d1 d2)

let sub a b =
  match (a, b) with
  | S (n1, d1), S (n2, d2) ->
    if d1 = d2 then
      if d1 = 1 then int_result (n1 - n2)
      else begin
        let n = n1 - n2 in
        if n = 0 then zero else norm_small n d1
      end
    else begin
      let n = (n1 * d2) - (n2 * d1) in
      if n = 0 then zero else norm_small n (d1 * d2)
    end
  | _ -> add a (neg b)

let mul a b =
  match (a, b) with
  | S (n1, d1), S (n2, d2) ->
    if n1 = 0 || n2 = 0 then zero
    else begin
      (* Cross-reduce first: the two factors are already in lowest terms, so
         dividing out gcd(|n1|, d2) and gcd(|n2|, d1) leaves a reduced
         product with no final gcd needed. *)
      let g1 = gcd_int (Stdlib.abs n1) d2 and g2 = gcd_int (Stdlib.abs n2) d1 in
      mk_small (n1 / g1 * (n2 / g2)) (d1 / g2 * (d2 / g1))
    end
  | _ ->
    let n1, d1 = promote a and n2, d2 = promote b in
    make (Bigint.mul n1 n2) (Bigint.mul d1 d2)

let div a b =
  match (a, b) with
  | S (_, _), S (0, _) -> raise Division_by_zero
  | S (0, _), S (_, _) -> zero
  | S (n1, d1), S (n2, d2) ->
    (* a / b = (n1 * d2) / (d1 * n2); both operands reduced, so removing
       gcd(|n1|, |n2|) and gcd(d1, d2) leaves the quotient reduced. *)
    let g1 = gcd_int (Stdlib.abs n1) (Stdlib.abs n2) and g2 = gcd_int d1 d2 in
    let n = n1 / g1 * (d2 / g2) and d = d1 / g2 * (Stdlib.abs n2 / g1) in
    mk_small (if n2 < 0 then -n else n) d
  | _ -> mul a (inv b)

let compare a b =
  match (a, b) with
  | S (n1, d1), S (n2, d2) ->
    if d1 = d2 then Stdlib.compare n1 n2 else Stdlib.compare (n1 * d2) (n2 * d1)
  | _ ->
    let n1, d1 = promote a and n2, d2 = promote b in
    Bigint.compare (Bigint.mul n1 d2) (Bigint.mul n2 d1)

let equal a b =
  match (a, b) with
  | S (n1, d1), S (n2, d2) -> n1 = n2 && d1 = d2
  | B (n1, d1), B (n2, d2) -> Bigint.equal n1 n2 && Bigint.equal d1 d2
  | _ -> false (* canonical form: small values are never boxed *)

(* Consistent with [equal] by the same canonical form. *)
let hash = function
  | S (n, d) -> (n * 65599) + d
  | B (n, d) -> (Bigint.hash n * 65599) + Bigint.hash d

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let floor = function
  | S (n, d) -> Bigint.of_int (if n >= 0 then n / d else -((-n + d - 1) / d))
  | B (n, d) -> Bigint.fdiv n d

let ceil = function
  | S (n, d) -> Bigint.of_int (if n >= 0 then (n + d - 1) / d else -(-n / d))
  | B (n, d) -> Bigint.cdiv n d

let to_bigint x =
  if is_integer x then num x else failwith "Q.to_bigint: not an integer"

let to_int = function
  | S (n, 1) -> n
  | x -> Bigint.to_int (to_bigint x)

let to_float = function
  | S (n, d) -> float_of_int n /. float_of_int d
  | B (n, d) ->
    (* Scale numerator and denominator down together: keep the top 62 bits
       of each (exact native conversion) and reapply the exponent difference
       once, so huge-but-balanced fractions survive the conversion instead
       of overflowing componentwise. *)
    let keep b =
      let k = Stdlib.max 0 (Bigint.numbits b - 62) in
      (float_of_int (Bigint.to_int (Bigint.shift_right b k)), k)
    in
    let fn, kn = keep n and fd, kd = keep d in
    ldexp (fn /. fd) (kn - kd)

(* native components print as [Bigint.to_string] prints them *)
let to_string = function
  | S (n, 1) -> string_of_int n
  | S (n, d) -> string_of_int n ^ "/" ^ string_of_int d
  | B (n, d) when Bigint.equal d Bigint.one -> Bigint.to_string n
  | B (n, d) -> Bigint.to_string n ^ "/" ^ Bigint.to_string d

let pp fmt x = Format.pp_print_string fmt (to_string x)

module Infix = struct
  let ( +/ ) = add
  let ( -/ ) = sub
  let ( */ ) = mul
  let ( // ) = div
  let ( =/ ) a b = equal a b
  let ( </ ) a b = compare a b < 0
  let ( <=/ ) a b = compare a b <= 0
  let ( >/ ) a b = compare a b > 0
  let ( >=/ ) a b = compare a b >= 0
end
