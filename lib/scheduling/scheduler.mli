(** Influenced scheduling construction (Algorithm 1).

    An iterative Pluto-style scheduler: dimensions are computed outermost
    first by solving one lexicographic ILP per dimension, assembled from the
    {!Builders} constraint sets.  The strategy mirrors the isl scheduler the
    paper compares against: each dimension is first attempted with
    coincidence constraints (zero reuse distance on every active
    dependence); when that fails the scheduler separates strongly connected
    components with a scalar dimension when possible, and otherwise accepts
    a sequential dimension.  There is one formulation: proximity bounds
    the distance of every unsatisfied dependence (flow, anti, output;
    read-read pairs are not dependences), coefficients lie in
    [0, {!Builders.coef_bound}], and isl's Feautrier fallback is omitted,
    as the paper itself does (Section IV-B).

    An {!Influence.t} tree injects additional constraints: the tree is
    traversed depth-first, node constraints join the ILP of the matching
    dimension, and failures trigger — in priority order — dropping
    coincidence, moving to the right sibling, retiring strongly satisfied
    dependences (ending the permutable band), backtracking to an ancestor's
    sibling (withdrawing the dimensions computed below it), SCC separation,
    and finally abandoning influence altogether, in which case the result
    is exactly the baseline schedule. *)

type strategy = [ `Fastpath_then_ilp | `Ilp_only ]
(** How each loop dimension is computed.  [`Ilp_only] always solves the
    exact per-dimension ILP (the pre-fast-path behavior);
    [`Fastpath_then_ilp] first tries the {!Fastpath} dimension-matching
    candidate and falls back to the exact ILP — per dimension, not per
    schedule — whenever the candidate is rejected.  Both strategies
    produce bit-identical schedules (accepted candidates are the ILP's
    unique lexicographic optimum); the fast path only changes how much
    work finding them takes. *)

val strategy_name : strategy -> string
(** Stable textual name ("fastpath-then-ilp" / "ilp-only"), used by the
    [schedule] command's [--strategy] flag and by serve's validation of a
    request's ["strategy"] field.  Cache keys do not carry it: both
    strategies give the same schedule. *)

val strategy_of_name : string -> strategy option

type config = {
  max_ilp_nodes : int;  (** branch-and-bound budget per solve *)
  strategy : strategy;
      (** [`Fastpath_then_ilp] by default; see {!type:strategy}. *)
}

val default_config : config

type stats = {
  mutable ilp_solves : int;
  mutable bb_nodes : int;
      (** branch-and-bound nodes this run's dimension ILPs explored (the
          [ilp.bb_nodes] delta of each solve); inside a
          {!Polyhedra.Solver_memo} scope, a solve an earlier run already
          did is looked up, and its nodes stay with that run *)
  mutable loop_dims : int;
  mutable scalar_dims : int;
  mutable coincidence_failures : int;
  mutable band_ends : int;
  mutable sibling_moves : int;
  mutable ancestor_backtracks : int;
  mutable scc_separations : int;
  mutable influence_abandoned : bool;
  mutable fastpath_hits : int;  (** dimensions committed without an ILP *)
  mutable fastpath_fallbacks : int;
      (** fast-path attempts that fell back to the exact ILP (a dimension
          can contribute two: the coincident and the sequential attempt) *)
  mutable fastpath_validity_rejects : int;
      (** fallbacks whose candidate failed a semantic dependence check *)
  mutable screened : int;
      (** fallbacks answered infeasible by the LP of the dependence whose
          validity rejected the candidate, before the dimension ILP was
          built (counted in [ilp_solves] too) *)
}

exception Failure_no_schedule of string

val nonneg_on : Builders.nonneg_on
(** {!Farkas.nonneg_on} through a {!Polyhedra.Solver_memo} table keyed by
    the relation's constraints, coefficient template and constant part.
    Dimension ILPs have a table too, keyed by constraints, objectives,
    integer variables and [config.max_ilp_nodes].  Influence only adds
    constraints, so one kernel's schedules share most expansions and
    some ILPs, and backtracking re-poses solved ILPs: in a scope those
    are lookups, with bit-identical schedules.  Counted by
    [scheduler.farkas_memo_hits] / [scheduler.farkas_expansions] and
    [scheduler.ilp_cache_hits] / [scheduler.ilp_cache_misses]. *)

val schedule :
  ?config:config ->
  ?influence:Influence.t ->
  Ir.Kernel.t ->
  Schedule.t * stats
(** Computes a complete schedule: every dependence strongly satisfied and
    every statement full-rank.  With [influence] absent or abandoned this
    is the isl-like baseline the paper evaluates as {b isl}.  The kernel's
    dependences come from {!Deps.Analysis.dependences}; inside a scope
    they are the scope's analysis of the kernel. *)
