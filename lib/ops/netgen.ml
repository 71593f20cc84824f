open Ir

type category =
  | Ew_chain of { stmts : int; rows : int; cols : int }
  | Bias_act of { rows : int; cols : int }
  | Permute_bad of { a : int; b : int; c : int }
  | Permute_fused of { a : int; b : int; c : int }
  | Transpose2d of { rows : int; cols : int }
  | Reduce_rows of { rows : int; cols : int }
  | Copy2d of { rows : int; cols : int }

(* a rotating pool of binary/unary operations so chains differ *)
let binops = [| Expr.Add; Expr.Sub; Expr.Mul; Expr.Max |]
let unops = [| Expr.Relu; Expr.Sigmoid; Expr.Tanh; Expr.Abs |]

let ew_chain ~name ~stmts ~rows ~cols =
  let t i = Printf.sprintf "t%d" i in
  let tensors =
    Build.tensor "aux" [ rows; cols ]
    :: List.init (stmts + 1) (fun i -> Build.tensor (t i) [ rows; cols ])
  in
  let stmt i =
    let ri = Printf.sprintf "r%d" i and ci = Printf.sprintf "c%d" i in
    let prev = Build.access (t i) [ ri; ci ] in
    let aux = Build.access "aux" [ ri; ci ] in
    let rhs =
      if i mod 2 = 0 then Expr.Binop (binops.(i mod 4), Expr.load prev, Expr.load aux)
      else Expr.Unop (unops.(i mod 4), Expr.load prev)
    in
    Build.stmt (Printf.sprintf "S%d" i)
      ~iters:[ (ri, rows); (ci, cols) ]
      ~write:(Build.access (t (i + 1)) [ ri; ci ])
      ~rhs
  in
  Build.kernel name ~tensors ~stmts:(List.init stmts stmt)

let bias_act ~name ~rows ~cols =
  let tensors =
    [ Build.tensor "x" [ rows; cols ];
      Build.tensor "bias" [ cols ];
      Build.tensor "out" [ rows; cols ]
    ]
  in
  let open Expr.Infix in
  let s =
    Build.stmt "B"
      ~iters:[ ("i", rows); ("j", cols) ]
      ~write:(Build.access "out" [ "i"; "j" ])
      ~rhs:
        (Expr.Unop
           (Expr.Relu, Expr.load (Build.access "x" [ "i"; "j" ]) + Expr.load (Build.access "bias" [ "j" ])))
  in
  Build.kernel name ~tensors ~stmts:[ s ]

let permute_bad ~name ~a ~b ~c =
  let tensors = [ Build.tensor "src" [ a; b; c ]; Build.tensor "dst" [ b; a; c ] ] in
  let s =
    Build.stmt "P"
      ~iters:[ ("pc", c); ("pa", a); ("pb", b) ]
      ~write:(Build.access "dst" [ "pb"; "pa"; "pc" ])
      ~rhs:(Expr.load (Build.access "src" [ "pa"; "pb"; "pc" ]))
  in
  Build.kernel name ~tensors ~stmts:[ s ]

let permute_fused ~name ~a ~b ~c =
  let tensors =
    [ Build.tensor "src" [ a; b; c ];
      Build.tensor "mid" [ b; a; c ];
      Build.tensor "dst" [ b; a; c ]
    ]
  in
  let open Expr.Infix in
  let p =
    Build.stmt "P"
      ~iters:[ ("pc", c); ("pa", a); ("pb", b) ]
      ~write:(Build.access "mid" [ "pb"; "pa"; "pc" ])
      ~rhs:(Expr.load (Build.access "src" [ "pa"; "pb"; "pc" ]))
  in
  let s =
    Build.stmt "E"
      ~iters:[ ("eb", b); ("ea", a); ("ec", c) ]
      ~write:(Build.access "dst" [ "eb"; "ea"; "ec" ])
      ~rhs:(Expr.load (Build.access "mid" [ "eb"; "ea"; "ec" ]) * Expr.const 0.0625)
  in
  Build.kernel name ~tensors ~stmts:[ p; s ]

let transpose2d ~name ~rows ~cols =
  let tensors = [ Build.tensor "src" [ cols; rows ]; Build.tensor "dst" [ rows; cols ] ] in
  let s =
    Build.stmt "T"
      ~iters:[ ("i", rows); ("j", cols) ]
      ~write:(Build.access "dst" [ "i"; "j" ])
      ~rhs:(Expr.load (Build.access "src" [ "j"; "i" ]))
  in
  Build.kernel name ~tensors ~stmts:[ s ]

let reduce_rows ~name ~rows ~cols =
  let tensors = [ Build.tensor "x" [ rows; cols ]; Build.tensor "out" [ rows ] ] in
  let open Expr.Infix in
  let s =
    Build.stmt "R"
      ~iters:[ ("i", rows); ("j", cols) ]
      ~write:(Build.access "out" [ "i" ])
      ~rhs:(Expr.load (Build.access "out" [ "i" ]) + Expr.load (Build.access "x" [ "i"; "j" ]))
  in
  Build.kernel name ~tensors ~stmts:[ s ]

let copy2d ~name ~rows ~cols =
  let tensors = [ Build.tensor "src" [ rows; cols ]; Build.tensor "dst" [ rows; cols ] ] in
  let s =
    Build.stmt "C"
      ~iters:[ ("i", rows); ("j", cols) ]
      ~write:(Build.access "dst" [ "i"; "j" ])
      ~rhs:(Expr.load (Build.access "src" [ "i"; "j" ]))
  in
  Build.kernel name ~tensors ~stmts:[ s ]

let build ~name = function
  | Ew_chain { stmts; rows; cols } -> ew_chain ~name ~stmts ~rows ~cols
  | Bias_act { rows; cols } -> bias_act ~name ~rows ~cols
  | Permute_bad { a; b; c } -> permute_bad ~name ~a ~b ~c
  | Permute_fused { a; b; c } -> permute_fused ~name ~a ~b ~c
  | Transpose2d { rows; cols } -> transpose2d ~name ~rows ~cols
  | Reduce_rows { rows; cols } -> reduce_rows ~name ~rows ~cols
  | Copy2d { rows; cols } -> copy2d ~name ~rows ~cols
