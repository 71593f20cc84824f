(** Parameterized fused-operator constructors.

    The categories model the fused-operator population MindSpore's
    graph-kernel fusion hands to AKG: element-wise chains, broadcast
    bias/activation epilogues, layout permutations (with the hostile
    incoming loop orders that fusion around Transpose nodes produces),
    2-D transposes, row reductions and cast/copy data movement. *)

type category =
  | Ew_chain of { stmts : int; rows : int; cols : int }
      (** [stmts]-deep element-wise producer/consumer chain *)
  | Bias_act of { rows : int; cols : int }
      (** broadcast bias + activation *)
  | Permute_bad of { a : int; b : int; c : int }
      (** outer-dim permutation, hostile incoming loop order *)
  | Permute_fused of { a : int; b : int; c : int }
      (** the same permutation fused with an element-wise scale *)
  | Transpose2d of { rows : int; cols : int }
  | Reduce_rows of { rows : int; cols : int }
  | Copy2d of { rows : int; cols : int }

val build : name:string -> category -> Ir.Kernel.t
