(** Influenced dimension scenarios (Algorithm 2).

    For each statement the optimizer greedily builds the ordered list of
    innermost dimensions — the innermost one prepared for explicit
    load/store vectorization, the following ones maximizing coalescing —
    under a thread budget.  Several alternatives per statement are kept so
    the constraint tree can offer fallbacks. *)

type t = {
  stmt : string;
  dims : string list;
      (** the influenced dimensions, outermost first; the last entry is the
          innermost loop.  Covers the last [List.length dims] scheduling
          dimensions of the statement. *)
  vector_iter : string option;
      (** the innermost iterator when eligible for explicit vector types *)
  vector_width : int;  (** 4, 2, or 1 (not vectorizable) *)
  score : float;  (** accumulated {!Costmodel.cost} of the chosen dims *)
}

val build :
  ?weights:Costmodel.weights ->
  Ir.Kernel.t ->
  Ir.Stmt.t ->
  alternative:int ->
  t option
(** The scenario obtained by taking the [alternative]-th best innermost
    dimension (0 = best) and completing greedily, as in Algorithm 2: at
    most 3 influenced dimensions under a 1024-thread budget.  [None] when
    the statement has fewer distinct dimensions than requested
    alternatives. *)

val build_all :
  ?weights:Costmodel.weights ->
  Ir.Kernel.t ->
  t list list
(** Scenario sets for the whole kernel: element [r] holds the [r]-th
    alternative scenario of every statement (statements without an [r]-th
    alternative fall back to their best one).  At most 4 sets,
    deduplicated. *)

val pp : Format.formatter -> t -> unit
