type t = {
  name : string;
  kind : string;
  dataset : string;
  ops : (string * Ir.Kernel.t) list lazy_t;
}

let op_count n = List.length (Lazy.force n.ops)

(* Build a suite from a list of (basename, category) specs. *)
let suite specs =
  lazy
    (List.mapi
       (fun i (base, cat) ->
         let name = Printf.sprintf "%s_%03d" base i in
         (name, Netgen.build ~name cat))
       specs)

let repeat n mk = List.init n mk

open Netgen

(* Even shapes vectorize with float4/float2; odd last dimensions make the
   operator ineligible (condition (b) of Section V), which also leaves the
   baseline schedule untouched for simple element-wise fusions: those are
   the paper's "not influenced" operators. *)

let bert =
  let even_shapes = [| (128, 768); (128, 3072); (512, 768); (128, 1024) |] in
  let odd_shapes = [| (128, 767); (128, 255); (512, 501); (128, 1023) |] in
  let specs =
    repeat 30 (fun i ->
        let rows, cols = even_shapes.(i mod 4) in
        ("bert_ew", Ew_chain { stmts = 2 + (i mod 3); rows; cols }))
    @ repeat 13 (fun i ->
          let rows, cols = even_shapes.(i mod 2) in
          ("bert_bias", Bias_act { rows; cols }))
    @ repeat 8 (fun i ->
          let rows, cols = if i mod 2 = 0 then (128, 768) else (768, 128) in
          ("bert_transpose", Transpose2d { rows; cols }))
    @ repeat 2 (fun _ -> ("bert_permute", Permute_bad { a = 12; b = 128; c = 64 }))
    @ repeat 10 (fun i ->
          let rows, cols = even_shapes.(i mod 4) in
          ("bert_copy", Copy2d { rows; cols }))
    @ repeat 28 (fun i ->
          let rows, cols = odd_shapes.(i mod 4) in
          ("bert_ew_odd", Ew_chain { stmts = 1 + (i mod 3); rows; cols }))
    @ repeat 10 (fun i ->
          let rows, cols = odd_shapes.(i mod 4) in
          ("bert_copy_odd", Copy2d { rows; cols }))
    @ repeat 8 (fun i ->
          let rows, cols = odd_shapes.(i mod 4) in
          ("bert_bias_odd", Bias_act { rows; cols }))
  in
  { name = "BERT"; kind = "nlp"; dataset = "zhwiki"; ops = suite specs }

let lstm =
  let specs =
    [ ("lstm_ew", Ew_chain { stmts = 3; rows = 256; cols = 400 });
      ("lstm_gates", Ew_chain { stmts = 2; rows = 256; cols = 1600 });
      ("lstm_bias", Bias_act { rows = 256; cols = 1600 });
      ("lstm_ew_odd", Ew_chain { stmts = 2; rows = 256; cols = 401 })
    ]
  in
  { name = "LSTM"; kind = "nlp"; dataset = "ACLIMDB, GloVe"; ops = suite specs }

let mobilenetv2 =
  let specs =
    repeat 10 (fun i ->
        let shapes = [| (3136, 32); (784, 96); (196, 320); (784, 144) |] in
        let rows, cols = shapes.(i mod 4) in
        ("mbv2_bias", Bias_act { rows; cols }))
    @ repeat 6 (fun i ->
          ("mbv2_ew", Ew_chain { stmts = 2 + (i mod 2); rows = 3136; cols = 32 }))
    @ repeat 2 (fun _ -> ("mbv2_ew_odd", Ew_chain { stmts = 2; rows = 784; cols = 97 }))
  in
  { name = "MobileNetv2"; kind = "cv"; dataset = "ImageNet"; ops = suite specs }

let resnet50 =
  let specs =
    repeat 5 (fun i ->
        let shapes = [| (64, 64, 64); (32, 64, 128); (64, 256, 32) |] in
        let a, b, c = shapes.(i mod 3) in
        ("r50_permute", Permute_bad { a; b; c }))
    @ repeat 2 (fun _ -> ("r50_permute_fused", Permute_fused { a = 32; b = 64; c = 64 }))
    @ repeat 4 (fun i -> ("r50_ew", Ew_chain { stmts = 2 + (i mod 2); rows = 1024; cols = 64 }))
    @ repeat 2 (fun _ -> ("r50_reduce", Reduce_rows { rows = 1024; cols = 49 }))
    @ [ ("r50_transpose", Transpose2d { rows = 1024; cols = 49 }) ]
    @ repeat 3 (fun _ -> ("r50_ew_odd", Ew_chain { stmts = 2; rows = 1024; cols = 63 }))
  in
  { name = "ResNet50"; kind = "cv"; dataset = "CIFAR-10"; ops = suite specs }

let resnet101 =
  let specs =
    repeat 9 (fun i ->
        let shapes = [| (128, 196, 64); (64, 196, 128); (128, 98, 64); (64, 392, 64) |] in
        let a, b, c = shapes.(i mod 4) in
        ("r101_permute", Permute_bad { a; b; c }))
    @ repeat 2 (fun _ -> ("r101_permute_fused", Permute_fused { a = 64; b = 196; c = 64 }))
    @ repeat 4 (fun i -> ("r101_ew", Ew_chain { stmts = 2 + (i mod 2); rows = 784; cols = 256 }))
    @ repeat 2 (fun _ -> ("r101_reduce", Reduce_rows { rows = 2048; cols = 49 }))
    @ repeat 5 (fun _ -> ("r101_ew_odd", Ew_chain { stmts = 2; rows = 784; cols = 255 }))
  in
  { name = "ResNet101"; kind = "cv"; dataset = "ImageNet"; ops = suite specs }

let resnext50 =
  let specs =
    repeat 3 (fun _ -> ("rx50_permute", Permute_bad { a = 32; b = 49; c = 64 }))
    @ repeat 12 (fun i ->
          ("rx50_ew", Ew_chain { stmts = 2 + (i mod 3); rows = 784; cols = 128 }))
    @ repeat 4 (fun i ->
          let shapes = [| (3136, 64); (784, 256) |] in
          let rows, cols = shapes.(i mod 2) in
          ("rx50_bias", Bias_act { rows; cols }))
    @ repeat 2 (fun _ -> ("rx50_reduce", Reduce_rows { rows = 1024; cols = 49 }))
    @ [ ("rx50_transpose", Transpose2d { rows = 1024; cols = 196 }) ]
    @ repeat 11 (fun _ -> ("rx50_ew_odd", Ew_chain { stmts = 2; rows = 784; cols = 127 }))
  in
  { name = "ResNeXt50"; kind = "cv"; dataset = "ImageNet"; ops = suite specs }

let vgg16 =
  let specs =
    repeat 2 (fun _ -> ("vgg_permute", Permute_bad { a = 32; b = 64; c = 64 }))
    @ repeat 5 (fun i -> ("vgg_ew", Ew_chain { stmts = 2 + (i mod 2); rows = 1024; cols = 64 }))
    @ repeat 2 (fun _ -> ("vgg_bias", Bias_act { rows = 1024; cols = 64 }))
    @ [ ("vgg_reduce", Reduce_rows { rows = 2048; cols = 49 }) ]
    @ repeat 4 (fun _ -> ("vgg_ew_odd", Ew_chain { stmts = 2; rows = 1024; cols = 63 }))
  in
  { name = "VGG16"; kind = "cv"; dataset = "CIFAR-10"; ops = suite specs }

(* Tiling-sensitive zoo (PR 9): stencils and contractions whose untiled
   per-block working sets exceed on-chip capacity, built directly from the
   hand-written classics rather than Netgen categories.  This is the suite
   Table II's [tiled] column is meant to move on. *)
let stencilzoo =
  { name = "StencilZoo";
    kind = "hpc";
    dataset = "synthetic";
    ops =
      lazy
        [ ("zoo_stencil2d_000", Classics.stencil2d ());
          ("zoo_stencil2d_mid_001", Classics.stencil2d ~n:256 ~m:512 ());
          ("zoo_stencil3d_002", Classics.stencil3d ());
          ("zoo_matmul_003", Classics.matmul ());
          ("zoo_layernorm_004", Classics.layernorm_chain ());
          ("zoo_softmax_wide_005", Classics.softmax ~n:512 ~m:256 ())
        ]
  }

let table1 = [ bert; lstm; mobilenetv2; resnet50; resnet101; resnext50; vgg16 ]
let all = table1 @ [ stencilzoo ]
