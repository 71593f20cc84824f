(** The non-linear cost model of Section V.

    Scores loop dimensions for their suitability as innermost (vector) and
    next-innermost (coalescing) dimensions.  Nothing here is affine — the
    model reasons about strides, array sizes, memory layout and thread
    budgets — which is exactly why the paper routes its conclusions into
    the affine scheduler through influence constraint trees instead of
    objective functions. *)

type weights = {
  w1 : float;  (** vectorizable stores *)
  w2 : float;  (** vectorizable loads *)
  w3 : float;  (** inverse minimum stride *)
  w4 : float;  (** accesses achieving the minimum stride *)
  w5 : float;  (** thread-budget contribution *)
}
(** The weight vector [w1..w5] of the cost function.  The scenario
    builder and {!Treegen} thread it down unchanged. *)

val default_weights : weights
(** The paper's configuration: [w1 = 5, w2 = 3], others 1 (Section V's
    ablation winner).  EXPERIMENTS.md quotes it as [(5,3,1,1,1)] and a
    test pins the quotation against this value. *)

val stride : Ir.Kernel.t -> Ir.Stmt.t -> Ir.Access.t -> iter:string -> int
(** Element-stride of the access when the iterator advances by one (the
    coefficient of the iterator in the row-major linear offset). *)

val vector_width :
  ?extent:(string -> int) -> Ir.Kernel.t -> Ir.Stmt.t -> iter:string -> Ir.Access.t -> int
(** Largest explicit vector width (4 or 2) usable for this access when
    [iter] is the innermost loop: the access must be constant in [iter] or
    contiguous through the tensor's last dimension with compatible
    alignment, and the loop extent must be divisible by the width.
    1 means not vectorizable.  [extent] gives the statement's iterator
    extents, {!Ir.Stmt.extent} by default; a caller asking many questions
    of one statement passes a memoized one. *)

val stmt_vector_width :
  ?extent:(string -> int) -> Ir.Kernel.t -> Ir.Stmt.t -> iter:string -> int
(** Vector width for the whole statement: the largest width any of its
    accesses supports (the paper vectorizes loads and stores independently,
    mixing vector and scalar types). *)

val cost :
  ?weights:weights ->
  Ir.Kernel.t ->
  Ir.Stmt.t ->
  iter:string ->
  innermost:bool ->
  thread_budget:int ->
  float
(** The scoring function of Algorithm 2.  [innermost] selects whether the
    vectorization terms [w1 |Vw| + w2 |Vr|] apply.  [thread_budget] is the
    remaining thread limit [L]. *)

type breakdown = {
  vec_stores : int;  (** [|Vw|]: 1 when the store vectorizes *)
  vec_loads : int;  (** [|Vr|]: vectorizable loads *)
  min_stride : int;  (** smallest absolute access stride *)
  near_accesses : int;  (** accesses with stride at most one element *)
  term_w1 : float;
  term_w2 : float;
  term_w3 : float;
  term_w4 : float;
  term_w5 : float;
  total : float;  (** what {!cost} returns: the sum of the five terms *)
}
(** The individual terms behind one {!cost} score — surfaced in trace
    events so scenario-ranking decisions can be audited. *)

val cost_breakdown :
  ?weights:weights ->
  ?extent:(string -> int) ->
  Ir.Kernel.t ->
  Ir.Stmt.t ->
  iter:string ->
  innermost:bool ->
  thread_budget:int ->
  breakdown
