(** CPU reference interpreter.

    Executes kernels in two ways — the original statement order, and any
    generated AST — over real float buffers, so tests can prove that a
    schedule + codegen pipeline preserves semantics bit-for-bit. *)

type memory = (string, float array) Hashtbl.t

val randomize : ?seed:int -> Ir.Kernel.t -> memory
(** Deterministic pseudo-random contents (inputs and outputs alike).
    Every seventh slot draws from an edge-case pool — signed zeros and
    subnormals — so bit-for-bit differential runs also cover floats where
    rounding or sign-of-zero behaviour could diverge. *)

val copy : memory -> memory

val equal : memory -> memory -> bool
(** Bit-for-bit equality of all buffers. *)

val max_abs_diff : memory -> memory -> float

val run_original : Ir.Kernel.t -> memory -> unit
(** Executes statements in list order, each statement's loop nest in
    lexicographic iteration order — the semantics dependence analysis
    preserves. *)

val run_ast : Ir.Kernel.t -> Codegen.Ast.t -> memory -> unit
(** Executes a generated AST: loops (with steps and multi-expression
    bounds), guards, scalar and vector statement instances (vector lanes
    execute in increasing order). *)
