(** Rendering of the paper's tables from measured results. *)

val table1 : Format.formatter -> unit
(** Table I: target end-to-end workloads. *)

val table2_row : Format.formatter -> string -> Eval.op_result list -> unit
(** One network row of Table II from its per-operator results. *)

val table2 : Format.formatter -> (string * Eval.op_result list) list -> unit
(** Table II: its header and one row per (network, per-operator results). *)

val geomean_line : Format.formatter -> (string * Eval.op_result list) list -> unit
(** The headline numbers: the geometric mean of per-network infl speedups
    over the rows that are Table I networks, beside the paper's 1.7x, then
    over every row (StencilZoo included). *)

val stats_row : Format.formatter -> Eval.op_result -> unit
(** One operator's row; a row without [obs] (read from the compile
    cache) reads [cached]. *)

val stats_table : Format.formatter -> Eval.op_result list -> unit
(** The observability companion of Table II: per-operator ILP-solve
    counts, influence-tree backtracking activity, and the compile/simulate
    time breakdown from {!Eval.op_obs}, with a totals row over the rows
    computed in this run — what the CLI prints under [--stats].
    [bb-nodes] and [sched(ms)] sum the isl, infl and tiled scheduler
    runs. *)
