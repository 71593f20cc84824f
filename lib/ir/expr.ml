type binop = Add | Sub | Mul | Div | Min | Max

type unop = Neg | Abs | Exp | Log | Sqrt | Rsqrt | Relu | Tanh | Sigmoid

type t =
  | Const of float
  | Load of Access.t
  | Binop of binop * t * t
  | Unop of unop * t

let load a = Load a
let const f = Const f

module Infix = struct
  let ( + ) a b = Binop (Add, a, b)
  let ( - ) a b = Binop (Sub, a, b)
  let ( * ) a b = Binop (Mul, a, b)
  let ( / ) a b = Binop (Div, a, b)
end

let rec loads = function
  | Const _ -> []
  | Load a -> [ a ]
  | Binop (_, a, b) -> loads a @ loads b
  | Unop (_, a) -> loads a

let rec map_accesses f = function
  | Const c -> Const c
  | Load a -> Load (f a)
  | Binop (op, a, b) -> Binop (op, map_accesses f a, map_accesses f b)
  | Unop (op, a) -> Unop (op, map_accesses f a)

let rec op_count = function
  | Const _ | Load _ -> 0
  | Binop (_, a, b) -> 1 + op_count a + op_count b
  | Unop (_, a) -> 1 + op_count a

let eval_binop op a b =
  match op with
  | Add -> a +. b
  | Sub -> a -. b
  | Mul -> a *. b
  | Div -> a /. b
  | Min -> Float.min a b
  | Max -> Float.max a b

let eval_unop op a =
  match op with
  | Neg -> -.a
  | Abs -> Float.abs a
  | Exp -> exp a
  | Log -> log a
  | Sqrt -> sqrt a
  | Rsqrt -> 1.0 /. sqrt a
  | Relu -> Float.max 0.0 a
  | Tanh -> tanh a
  | Sigmoid -> 1.0 /. (1.0 +. exp (-.a))

let rec eval lookup = function
  | Const c -> c
  | Load a -> lookup a
  | Binop (op, a, b) -> eval_binop op (eval lookup a) (eval lookup b)
  | Unop (op, a) -> eval_unop op (eval lookup a)

let binop_symbol = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Min -> "min"
  | Max -> "max"

let unop_name = function
  | Neg -> "neg"
  | Abs -> "abs"
  | Exp -> "exp"
  | Log -> "log"
  | Sqrt -> "sqrt"
  | Rsqrt -> "rsqrt"
  | Relu -> "relu"
  | Tanh -> "tanh"
  | Sigmoid -> "sigmoid"

let rec pp fmt = function
  | Const c -> Format.fprintf fmt "%g" c
  | Load a -> Access.pp fmt a
  | Binop ((Min | Max) as op, a, b) ->
    Format.fprintf fmt "%s(%a, %a)" (binop_symbol op) pp a pp b
  | Binop (op, a, b) -> Format.fprintf fmt "(%a %s %a)" pp a (binop_symbol op) pp b
  | Unop (op, a) -> Format.fprintf fmt "%s(%a)" (unop_name op) pp a

