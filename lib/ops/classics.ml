open Ir

let fig2 ?(n = 64) () =
  let tensors =
    [ Build.tensor "A" [ n; n ];
      Build.tensor "B" [ n; n ];
      Build.tensor "C" [ n; n ];
      Build.tensor "D" [ n; n; n ]
    ]
  in
  let x =
    Build.stmt "X"
      ~iters:[ ("iX", n); ("kX", n) ]
      ~write:(Build.access "B" [ "iX"; "kX" ])
      ~rhs:(Expr.Unop (Expr.Relu, Expr.load (Build.access "A" [ "iX"; "kX" ])))
  in
  let y =
    let open Expr.Infix in
    Build.stmt "Y"
      ~iters:[ ("iY", n); ("jY", n); ("kY", n) ]
      ~write:(Build.access "C" [ "iY"; "jY" ])
      ~rhs:
        (Expr.load (Build.access "C" [ "iY"; "jY" ])
        + Expr.load (Build.access "B" [ "iY"; "kY" ])
          * Expr.load (Build.access "D" [ "kY"; "iY"; "jY" ]))
  in
  Build.kernel "fig2_running_example" ~tensors ~stmts:[ x; y ]

let fused_mul_sub_mul_tensoradd ?(n = 128) ?(m = 768) () =
  let t2 name = Build.tensor name [ n; m ] in
  let tensors =
    [ t2 "a"; t2 "b"; t2 "c"; t2 "d"; t2 "e"; t2 "t1"; t2 "t2"; t2 "t3"; t2 "out" ]
  in
  let ew name tout e iters =
    Build.stmt name ~iters ~write:(Build.access tout [ fst (List.nth iters 0); fst (List.nth iters 1) ]) ~rhs:e
  in
  let open Expr.Infix in
  let s0 =
    ew "S0" "t1"
      (Expr.load (Build.access "a" [ "i0"; "j0" ]) * Expr.load (Build.access "b" [ "i0"; "j0" ]))
      [ ("i0", n); ("j0", m) ]
  in
  let s1 =
    ew "S1" "t2"
      (Expr.load (Build.access "t1" [ "i1"; "j1" ]) - Expr.load (Build.access "c" [ "i1"; "j1" ]))
      [ ("i1", n); ("j1", m) ]
  in
  let s2 =
    ew "S2" "t3"
      (Expr.load (Build.access "t2" [ "i2"; "j2" ]) * Expr.load (Build.access "d" [ "i2"; "j2" ]))
      [ ("i2", n); ("j2", m) ]
  in
  let s3 =
    ew "S3" "out"
      (Expr.load (Build.access "t3" [ "i3"; "j3" ]) + Expr.load (Build.access "e" [ "i3"; "j3" ]))
      [ ("i3", n); ("j3", m) ]
  in
  Build.kernel "fused_mul_sub_mul_tensoradd" ~tensors ~stmts:[ s0; s1; s2; s3 ]

let transpose_add ?(n = 64) ?(m = 256) () =
  let tensors =
    [ Build.tensor "a" [ m; n ]; Build.tensor "b" [ n; m ]; Build.tensor "out" [ n; m ] ]
  in
  let open Expr.Infix in
  let s =
    Build.stmt "T"
      ~iters:[ ("i", n); ("j", m) ]
      ~write:(Build.access "out" [ "i"; "j" ])
      ~rhs:(Expr.load (Build.access "a" [ "j"; "i" ]) + Expr.load (Build.access "b" [ "i"; "j" ]))
  in
  Build.kernel "transpose_add" ~tensors ~stmts:[ s ]

let cast_transpose ?(n = 64) ?(m = 256) () =
  let tensors = [ Build.tensor "a" [ m; n ]; Build.tensor "out" [ n; m ] ] in
  let s =
    Build.stmt "T"
      ~iters:[ ("i", n); ("j", m) ]
      ~write:(Build.access "out" [ "i"; "j" ])
      ~rhs:(Expr.load (Build.access "a" [ "j"; "i" ]))
  in
  Build.kernel "cast_transpose" ~tensors ~stmts:[ s ]

let broadcast_bias_relu ?(n = 256) ?(c = 64) () =
  let tensors =
    [ Build.tensor "x" [ n; c ]; Build.tensor "bias" [ c ]; Build.tensor "out" [ n; c ] ]
  in
  let open Expr.Infix in
  let s =
    Build.stmt "B"
      ~iters:[ ("i", n); ("j", c) ]
      ~write:(Build.access "out" [ "i"; "j" ])
      ~rhs:
        (Expr.Unop
           ( Expr.Relu,
             Expr.load (Build.access "x" [ "i"; "j" ]) + Expr.load (Build.access "bias" [ "j" ]) ))
  in
  Build.kernel "broadcast_bias_relu" ~tensors ~stmts:[ s ]

let reduce_2d ?(n = 128) ?(m = 128) () =
  let tensors = [ Build.tensor "x" [ n; m ]; Build.tensor "out" [ n ] ] in
  let open Expr.Infix in
  let s =
    Build.stmt "R"
      ~iters:[ ("i", n); ("j", m) ]
      ~write:(Build.access "out" [ "i" ])
      ~rhs:(Expr.load (Build.access "out" [ "i" ]) + Expr.load (Build.access "x" [ "i"; "j" ]))
  in
  Build.kernel "reduce_2d" ~tensors ~stmts:[ s ]

(* Layout permutation of the outer dimensions with the contiguous last
   dimension preserved, as produced around Transpose nodes by graph-kernel
   fusion.  The incoming loop order is hostile: the innermost loop [b]
   strides every access, which is exactly the situation where the baseline
   scheduler (which has no reason to reorder) generates very poor GPU code
   and the influenced scheduler shines (Section VI: the ResNet cases). *)
let permute_outer_bad ?(a = 32) ?(b = 32) ?(c = 64) () =
  let tensors = [ Build.tensor "in" [ a; b; c ]; Build.tensor "out" [ b; a; c ] ] in
  let s =
    Build.stmt "P"
      ~iters:[ ("pc", c); ("pa", a); ("pb", b) ]
      ~write:(Build.access "out" [ "pb"; "pa"; "pc" ])
      ~rhs:(Expr.load (Build.access "in" [ "pa"; "pb"; "pc" ]))
  in
  Build.kernel "permute_outer_bad" ~tensors ~stmts:[ s ]

(* The same permutation fused with a scale, BatchMatMul-epilogue style. *)
let permute_scale_fused ?(a = 32) ?(b = 32) ?(c = 64) () =
  let tensors =
    [ Build.tensor "in" [ a; b; c ];
      Build.tensor "tmp" [ b; a; c ];
      Build.tensor "out" [ b; a; c ]
    ]
  in
  let open Expr.Infix in
  let p =
    Build.stmt "P"
      ~iters:[ ("pc", c); ("pa", a); ("pb", b) ]
      ~write:(Build.access "tmp" [ "pb"; "pa"; "pc" ])
      ~rhs:(Expr.load (Build.access "in" [ "pa"; "pb"; "pc" ]))
  in
  let sscale =
    Build.stmt "S"
      ~iters:[ ("sb", b); ("sa", a); ("sc", c) ]
      ~write:(Build.access "out" [ "sb"; "sa"; "sc" ])
      ~rhs:(Expr.load (Build.access "tmp" [ "sb"; "sa"; "sc" ]) * Expr.const 0.125)
  in
  Build.kernel "permute_scale_fused" ~tensors ~stmts:[ p; sscale ]

(* Row softmax as graph-kernel fusion sees it: two reductions and two
   element-wise phases over one row.  Exercises multi-phase scheduling:
   every consumer depends on a complete reduction of its row, so the
   scheduler must keep the row loop fused and sequence the phases. *)
let softmax ?(n = 128) ?(m = 64) () =
  let t2 name = Build.tensor name [ n; m ] in
  let t1 name = Build.tensor name [ n ] in
  let tensors = [ t2 "x"; t1 "mx"; t2 "ex"; t1 "sum"; t2 "out" ] in
  let open Expr.Infix in
  let s0 =
    Build.stmt "Smax"
      ~iters:[ ("i0", n); ("j0", m) ]
      ~write:(Build.access "mx" [ "i0" ])
      ~rhs:
        (Expr.Binop
           ( Expr.Max,
             Expr.load (Build.access "mx" [ "i0" ]),
             Expr.load (Build.access "x" [ "i0"; "j0" ]) ))
  in
  let s1 =
    Build.stmt "Sexp"
      ~iters:[ ("i1", n); ("j1", m) ]
      ~write:(Build.access "ex" [ "i1"; "j1" ])
      ~rhs:
        (Expr.Unop
           ( Expr.Exp,
             Expr.load (Build.access "x" [ "i1"; "j1" ])
             - Expr.load (Build.access "mx" [ "i1" ]) ))
  in
  let s2 =
    Build.stmt "Ssum"
      ~iters:[ ("i2", n); ("j2", m) ]
      ~write:(Build.access "sum" [ "i2" ])
      ~rhs:(Expr.load (Build.access "sum" [ "i2" ]) + Expr.load (Build.access "ex" [ "i2"; "j2" ]))
  in
  let s3 =
    Build.stmt "Sdiv"
      ~iters:[ ("i3", n); ("j3", m) ]
      ~write:(Build.access "out" [ "i3"; "j3" ])
      ~rhs:(Expr.load (Build.access "ex" [ "i3"; "j3" ]) / Expr.load (Build.access "sum" [ "i3" ]))
  in
  Build.kernel "softmax" ~tensors ~stmts:[ s0; s1; s2; s3 ]

(* 2x spatial downsampling: the loads have stride 2 everywhere, so only
   the store can use vector types (condition (c) holds for the write
   alone). *)
let downsample_2x ?(n = 64) ?(m = 64) () =
  let tensors = [ Build.tensor "x" [ 2 * n; 2 * m ]; Build.tensor "out" [ n; m ] ] in
  let s =
    Build.stmt "D"
      ~iters:[ ("i", n); ("j", m) ]
      ~write:(Build.access "out" [ "i"; "j" ])
      ~rhs:
        (Expr.load
           (Access.make "x"
              [ Polyhedra.Linexpr.of_int_terms [ (2, "i") ] 0;
                Polyhedra.Linexpr.of_int_terms [ (2, "j") ] 0
              ]))
  in
  Build.kernel "downsample_2x" ~tensors ~stmts:[ s ]

(* out[i][j] = x[i][j] + x[i][j+1]: the shifted load is unit-stride but not
   lane-0 aligned, so the vector pass keeps the store vectorized and the
   shifted load crosses sector boundaries — a realistic mixed case. *)
let shift_add ?(n = 64) ?(m = 64) () =
  let tensors = [ Build.tensor "x" [ n; m + 1 ]; Build.tensor "out" [ n; m ] ] in
  let open Expr.Infix in
  let s =
    Build.stmt "H"
      ~iters:[ ("i", n); ("j", m) ]
      ~write:(Build.access "out" [ "i"; "j" ])
      ~rhs:
        (Expr.load (Build.access "x" [ "i"; "j" ])
        + Expr.load (Access.make "x" [ Build.idx "i"; Build.idx_plus "j" 1 ]))
  in
  Build.kernel "shift_add" ~tensors ~stmts:[ s ]

(* ------------------------------------------------------------------ *)
(* Tiling-sensitive workloads (PR 9): stencils and contractions whose   *)
(* per-block working sets blow past on-chip capacity untiled but fit    *)
(* once the tiling influence client injects a tile shape.               *)
(* ------------------------------------------------------------------ *)

(* 5-point 2D stencil over a haloed input: every output point reads a
   cross of 5 input points, so neighbouring threads (and neighbouring
   rows within a tile) re-read the same sectors.  At the default size the
   input (~8.4 MB) exceeds the V100's L2, so the untiled version streams
   most of the redundancy from DRAM while a tiled version keeps it in
   shared memory. *)
let stencil2d ?(n = 1024) ?(m = 2048) () =
  let tensors = [ Build.tensor "x" [ n + 2; m + 2 ]; Build.tensor "out" [ n; m ] ] in
  let open Expr.Infix in
  let at di dj =
    Expr.load (Access.make "x" [ Build.idx_plus "i" di; Build.idx_plus "j" dj ])
  in
  let s =
    Build.stmt "S"
      ~iters:[ ("i", n); ("j", m) ]
      ~write:(Build.access "out" [ "i"; "j" ])
      ~rhs:((at 1 1 + at 0 1 + at 2 1 + at 1 0 + at 1 2) * Expr.const 0.2)
  in
  Build.kernel "stencil2d" ~tensors ~stmts:[ s ]

(* 7-point 3D stencil: three tilable dimensions, so the influence tree
   gets both a full-band branch and the band-2 fallback. *)
let stencil3d ?(d = 64) ?(n = 64) ?(m = 256) () =
  let tensors =
    [ Build.tensor "x" [ d + 2; n + 2; m + 2 ]; Build.tensor "out" [ d; n; m ] ]
  in
  let open Expr.Infix in
  let at dk di dj =
    Expr.load
      (Access.make "x" [ Build.idx_plus "k" dk; Build.idx_plus "i" di; Build.idx_plus "j" dj ])
  in
  let s =
    Build.stmt "S"
      ~iters:[ ("k", d); ("i", n); ("j", m) ]
      ~write:(Build.access "out" [ "k"; "i"; "j" ])
      ~rhs:
        ((at 1 1 1 + at 0 1 1 + at 2 1 1 + at 1 0 1 + at 1 2 1 + at 1 1 0 + at 1 1 2)
        * Expr.const 0.125)
  in
  Build.kernel "stencil3d" ~tensors ~stmts:[ s ]

(* Matmul-style contraction [c[i][j] += a[i][k] * b[k][j]]: the reduction
   dimension carries a forward dependence, so the whole 3-deep nest is a
   tilable band and classic rectangular i/j/k tiling applies. *)
let matmul ?(n = 256) ?(m = 256) ?(k = 256) () =
  let tensors =
    [ Build.tensor "a" [ n; k ]; Build.tensor "b" [ k; m ]; Build.tensor "c" [ n; m ] ]
  in
  let open Expr.Infix in
  let s =
    Build.stmt "M"
      ~iters:[ ("i", n); ("j", m); ("kk", k) ]
      ~write:(Build.access "c" [ "i"; "j" ])
      ~rhs:
        (Expr.load (Build.access "c" [ "i"; "j" ])
        + Expr.load (Build.access "a" [ "i"; "kk" ])
          * Expr.load (Build.access "b" [ "kk"; "j" ]))
  in
  Build.kernel "matmul" ~tensors ~stmts:[ s ]

(* Layernorm-style chain: a row reduction feeding two element-wise phases
   (centering, then gain).  Like softmax it stresses multi-phase
   scheduling; unlike softmax its phases are all tilable along the row. *)
let layernorm_chain ?(n = 512) ?(m = 1024) () =
  let t2 name = Build.tensor name [ n; m ] in
  let tensors = [ t2 "x"; Build.tensor "mean" [ n ]; t2 "cent"; Build.tensor "g" [ m ]; t2 "out" ] in
  let open Expr.Infix in
  let s0 =
    Build.stmt "Lsum"
      ~iters:[ ("i0", n); ("j0", m) ]
      ~write:(Build.access "mean" [ "i0" ])
      ~rhs:
        (Expr.load (Build.access "mean" [ "i0" ]) + Expr.load (Build.access "x" [ "i0"; "j0" ]))
  in
  let s1 =
    Build.stmt "Lcent"
      ~iters:[ ("i1", n); ("j1", m) ]
      ~write:(Build.access "cent" [ "i1"; "j1" ])
      ~rhs:
        (Expr.load (Build.access "x" [ "i1"; "j1" ])
        - Expr.load (Build.access "mean" [ "i1" ]) * Expr.const (1.0 /. float_of_int m))
  in
  let s2 =
    Build.stmt "Lout"
      ~iters:[ ("i2", n); ("j2", m) ]
      ~write:(Build.access "out" [ "i2"; "j2" ])
      ~rhs:(Expr.load (Build.access "cent" [ "i2"; "j2" ]) * Expr.load (Build.access "g" [ "j2" ]))
  in
  Build.kernel "layernorm_chain" ~tensors ~stmts:[ s0; s1; s2 ]

let all =
  [ ("fig2", fun () -> fig2 ());
    ("fused_mul_sub_mul_tensoradd", fun () -> fused_mul_sub_mul_tensoradd ());
    ("transpose_add", fun () -> transpose_add ());
    ("cast_transpose", fun () -> cast_transpose ());
    ("broadcast_bias_relu", fun () -> broadcast_bias_relu ());
    ("reduce_2d", fun () -> reduce_2d ());
    ("permute_outer_bad", fun () -> permute_outer_bad ());
    ("permute_scale_fused", fun () -> permute_scale_fused ());
    ("softmax", fun () -> softmax ());
    ("downsample_2x", fun () -> downsample_2x ());
    ("shift_add", fun () -> shift_add ());
    ("stencil2d", fun () -> stencil2d ());
    ("stencil3d", fun () -> stencil3d ());
    ("matmul", fun () -> matmul ());
    ("layernorm_chain", fun () -> layernorm_chain ())
  ]

let all_small =
  [ ("fig2", fun () -> fig2 ~n:8 ());
    ("fused_mul_sub_mul_tensoradd", fun () -> fused_mul_sub_mul_tensoradd ~n:4 ~m:8 ());
    ("transpose_add", fun () -> transpose_add ~n:6 ~m:8 ());
    ("cast_transpose", fun () -> cast_transpose ~n:8 ~m:4 ());
    ("broadcast_bias_relu", fun () -> broadcast_bias_relu ~n:8 ~c:8 ());
    ("reduce_2d", fun () -> reduce_2d ~n:4 ~m:8 ());
    ("permute_outer_bad", fun () -> permute_outer_bad ~a:4 ~b:4 ~c:8 ());
    ("permute_scale_fused", fun () -> permute_scale_fused ~a:4 ~b:4 ~c:8 ());
    ("softmax", fun () -> softmax ~n:4 ~m:8 ());
    ("downsample_2x", fun () -> downsample_2x ~n:4 ~m:4 ());
    ("shift_add", fun () -> shift_add ~n:4 ~m:8 ());
    ("stencil2d", fun () -> stencil2d ~n:6 ~m:8 ());
    ("stencil3d", fun () -> stencil3d ~d:3 ~n:4 ~m:4 ());
    ("matmul", fun () -> matmul ~n:4 ~m:4 ~k:4 ());
    ("layernorm_chain", fun () -> layernorm_chain ~n:4 ~m:8 ())
  ]
