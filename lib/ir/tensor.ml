type dtype = F16 | F32

type t = { name : string; dims : int array; dtype : dtype }

let dtype_bytes = function F16 -> 2 | F32 -> 4

let make name dims =
  if String.length name = 0 then invalid_arg "Tensor.make: empty name";
  if dims = [] then invalid_arg "Tensor.make: scalar tensors need rank >= 1";
  List.iter (fun d -> if d <= 0 then invalid_arg "Tensor.make: non-positive dim") dims;
  let grow bytes d =
    if bytes > max_int / d then invalid_arg ("Tensor.make: " ^ name ^ "'s size overflows int");
    bytes * d
  in
  ignore (List.fold_left grow (dtype_bytes F32) dims);
  { name; dims = Array.of_list dims; dtype = F32 }

let rank t = Array.length t.dims
let elems t = Array.fold_left ( * ) 1 t.dims

let bytes t = elems t * dtype_bytes t.dtype

let strides t =
  let n = rank t in
  let s = Array.make n 1 in
  for i = n - 2 downto 0 do
    s.(i) <- s.(i + 1) * t.dims.(i + 1)
  done;
  s

let pp fmt t =
  Format.fprintf fmt "%s%s[%s]" t.name
    (match t.dtype with F16 -> ":f16" | F32 -> "")
    (String.concat "][" (Array.to_list (Array.map string_of_int t.dims)))

let to_string t = Format.asprintf "%a" pp t
