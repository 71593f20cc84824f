(* Splitmix64: tiny, fast, and — unlike [Random] — guaranteed stable
   across OCaml releases, which is what makes seeds replayable. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let make ~seed ~index =
  (* finalize both coordinates so that neighbouring (seed, index) pairs
     land in unrelated parts of the sequence *)
  let s = mix (Int64.of_int seed) in
  let i = mix (Int64.add (Int64.of_int index) golden) in
  { state = Int64.logxor s (Int64.mul i 0xD6E8FEB86659FD93L) }

let next t =
  t.state <- Int64.add t.state golden;
  mix t.state

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.rem (Int64.logand (next t) Int64.max_int) (Int64.of_int n))

let chance t p = float_of_int (int t 1_000_000) < p *. 1_000_000.0

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l -> List.nth l (int t (List.length l))

let shuffle t l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a
