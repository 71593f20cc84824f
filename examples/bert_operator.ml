(* The real fused operator behind the paper's running example:
   fused_mul_sub_mul_tensoradd from BERT (named in Fig. 2's caption).

   Demonstrates the full four-version comparison (isl / tvm / novec / infl)
   on a deep element-wise fusion, where the influenced scheduler's win
   comes from explicit vector types rather than loop restructuring — the
   BERT row of Table II.

   Run with:  dune exec examples/bert_operator.exe *)

let () =
  let kernel = Ops.Classics.fused_mul_sub_mul_tensoradd ~n:128 ~m:768 () in
  Format.printf "%a@." Ir.Kernel.pp kernel;

  let r = Harness.Eval.evaluate_op ~name:"fused_mul_sub_mul_tensoradd" kernel in
  Format.printf
    "simulated V100 execution times:@.  isl   %8.2f us@.  tvm   %8.2f us  (unfused: every statement a kernel, intermediates in DRAM)@.  novec %8.2f us@.  infl  %8.2f us@."
    r.Harness.Eval.isl_us r.tvm_us r.novec_us r.infl_us;
  Format.printf "speedups over isl: tvm %.2fx, novec %.2fx, infl %.2fx@."
    (r.isl_us /. r.tvm_us) (r.isl_us /. r.novec_us) (r.isl_us /. r.infl_us);

  (* The generated code for the influenced version: one fused kernel, the
     column loop rewritten as a float4 strip and mapped on threadIdx.x. *)
  let p = Harness.Pipeline.run Harness.Pipeline.Infl (Harness.Pipeline.operator kernel) in
  Format.printf "@.influenced kernel:@.%s" (Codegen.Cuda.emit p.Harness.Pipeline.compiled);

  (* And what the tvm comparator does instead: four separate kernels. *)
  Format.printf "@.tvm-style compilation: %d separate kernels@."
    (List.length (Baselines.Tvm.compile kernel))
