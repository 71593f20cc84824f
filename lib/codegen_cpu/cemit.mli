(** C emitter: a lowered kernel as one C translation unit for a CPU
    machine profile (scalar, AVX2/AVX-512 or NEON intrinsics, OpenMP on a
    multi-core profile). *)

val entry_symbol : string
(** The exported function every emitted unit defines, taking the kernel's
    tensors as [double **]. *)

val emit : ?machine:Gpusim.Machine.t -> Codegen.Compile.compiled -> string
(** The kernel's C source for [machine] (default [scalar-1core]). *)
