(** Hand-written fused operators, including the paper's running example.

    These kernels are shared by the tests, the examples and the benchmark
    harness; the generated per-network suites live in {!Netgen} and
    {!Networks}. *)

val fig2 : ?n:int -> unit -> Ir.Kernel.t
(** The running example of Fig. 2(a): statement [X] computes
    [B[i][k] = relu(A[i][k])] and statement [Y] accumulates
    [C[i][j] += B[i][k] * D[k][i][j]].  [n] is the extent of every loop
    (the paper's parameter [N]); default 64. *)

val fused_mul_sub_mul_tensoradd : ?n:int -> ?m:int -> unit -> Ir.Kernel.t
(** A BERT-style fused element-wise chain
    ([T1 = a*b; T2 = T1 - c; T3 = T2 * d; out = T3 + e]) over an [n x m]
    tensor — the real operator behind Fig. 2 per the paper. *)

val transpose_add : ?n:int -> ?m:int -> unit -> Ir.Kernel.t
(** [out[i][j] = a[j][i] + b[i][j]]: the transpose-flavoured pattern the
    paper credits for the large ResNet speedups. *)

val cast_transpose : ?n:int -> ?m:int -> unit -> Ir.Kernel.t
(** Pure data movement: [out[i][j] = a[j][i]]. *)

val broadcast_bias_relu : ?n:int -> ?c:int -> unit -> Ir.Kernel.t
(** [out[i][j] = relu(x[i][j] + bias[j])]: a bias-add + activation fusion. *)

val reduce_2d : ?n:int -> ?m:int -> unit -> Ir.Kernel.t
(** Row reduction [out[i] += x[i][j]]. *)

val permute_outer_bad : ?a:int -> ?b:int -> ?c:int -> unit -> Ir.Kernel.t
(** Outer-dimension layout permutation [out[b][a][c] = in[a][b][c]] with a
    hostile incoming loop order (innermost loop strides every access): the
    ResNet-style case where influenced scheduling wins big. *)

val permute_scale_fused : ?a:int -> ?b:int -> ?c:int -> unit -> Ir.Kernel.t
(** The same permutation fused with an element-wise scale. *)

val softmax : ?n:int -> ?m:int -> unit -> Ir.Kernel.t
(** Row softmax as a four-statement fused operator (two reductions, two
    element-wise phases): a multi-phase scheduling stress test. *)

val downsample_2x : ?n:int -> ?m:int -> unit -> Ir.Kernel.t
(** 2x spatial downsampling: the strided loads can never vectorize; only
    the store does. *)

val shift_add : ?n:int -> ?m:int -> unit -> Ir.Kernel.t
(** Horizontal stencil [x[i][j] + x[i][j+1]]: vectorizable store with an
    unaligned unit-stride load. *)

val stencil2d : ?n:int -> ?m:int -> unit -> Ir.Kernel.t
(** 5-point 2D stencil over a haloed [n+2 x m+2] input.  At the default
    size the input exceeds the V100's L2, so untiled execution streams the
    5x read redundancy from DRAM — the flagship tiling-sensitive case. *)

val stencil3d : ?d:int -> ?n:int -> ?m:int -> unit -> Ir.Kernel.t
(** 7-point 3D stencil: a 3-deep tilable band (exercises the band-2
    fallback branch of the tiling influence tree). *)

val matmul : ?n:int -> ?m:int -> ?k:int -> unit -> Ir.Kernel.t
(** Contraction [c[i][j] += a[i][k] * b[k][j]]; the reduction dimension's
    forward dependence keeps the full nest a permutable band. *)

val layernorm_chain : ?n:int -> ?m:int -> unit -> Ir.Kernel.t
(** Row reduction feeding centering and gain phases — a layernorm-style
    multi-phase chain whose phases all tile along the row dimension. *)

val all : (string * (unit -> Ir.Kernel.t)) list
(** Name-indexed constructors with default sizes, for table-driven tests. *)

val all_small : (string * (unit -> Ir.Kernel.t)) list
(** The same operators at tiny sizes, cheap enough for interpreter-based
    semantic validation. *)
