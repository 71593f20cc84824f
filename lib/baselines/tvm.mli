(** TVM-style manual-schedule comparator (the {b tvm} column of Table II).

    Models what TVM's hand-written injective templates do with a fused
    operator that has no tuned schedule: each statement runs as its own
    kernel (no cross-statement fusion, so intermediates round-trip through
    DRAM and every statement pays a launch), with the loop order aligned to
    the output tensor's layout (threads bound along the output's last
    dimension — excellent coalescing on stores, whatever the inputs do).
    This reproduces the paper's observations: competitive or better than
    the isl baseline on layout-permutation operators, far worse on the
    deep element-wise fusions of BERT. *)

val compile : Ir.Kernel.t -> Codegen.Compile.compiled list
(** One compiled kernel per statement, in original order. *)

val schedule_stmt : Ir.Kernel.t -> Ir.Stmt.t -> Scheduling.Schedule.t
(** The per-statement output-aligned schedule (exposed for tests). *)
