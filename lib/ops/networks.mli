(** The seven end-to-end workloads of Table I, as suites of fused
    operators.

    Operator counts match Table II's [total] column; the category mixes
    reflect what the paper reports about each network (BERT: many
    element-wise fusions, about half not improvable; ResNet-50/101: many
    layout permutations with hostile incoming loop orders — the cases with
    the largest speedups; MobileNetV2/LSTM: small suites dominated by
    bias/activation fusions).  Shapes follow the networks' layer sizes. *)

type t = {
  name : string;
  kind : string;  (** nlp / cv *)
  dataset : string;  (** Table I datasets *)
  ops : (string * Ir.Kernel.t) list lazy_t;
}

val bert : t
val lstm : t

val stencilzoo : t
(** Tiling-sensitive zoo (not part of Table I): stencils and contractions
    from {!Classics} whose untiled working sets exceed on-chip capacity —
    the suite the [tiled] column is meant to move on. *)

val table1 : t list
(** The paper's seven suites, in Table I order. *)

val all : t list
(** {!table1} followed by the tiling-sensitive zoo. *)

val op_count : t -> int
