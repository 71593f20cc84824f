(** One exact memo per operator: the only way work is shared within one.

    Within one operator, Algorithm 1 schedules three times (isl, the
    vectorizer tree, the tiling tree) and lowers five times, and each run
    asks many of the same questions again.  The three leaves every
    polyhedral query reaches — {!Simplex.minimize} (and so [maximize],
    [feasible_point], [is_feasible] and every {!Polyhedron} query),
    {!Fourier_motzkin.simplify} and {!Fourier_motzkin.eliminate_all} —
    look their exact input up in a table that {!scoped} opens, and solve
    only on a miss.  With {!Make}, so do the dependence analysis, the
    scheduler's Farkas expansions and ILPs, and the simulator's walks.

    {b Exact.}  A key is the leaf's whole input as given, in order: the
    constraint list and the objective, or the variable list and the
    constraint list.  It is never sorted, because row order decides the
    simplex's vertex and so [feasible_point]'s assignment.  Keys are hashed
    structurally over {!Constr}, {!Linexpr} and {!Polybase.Q} and compared
    with {!Constr.equal}/{!Linexpr.equal} after a physical-equality check.
    Every outcome is stored, an infeasible or unbounded LP and a raised
    {!Fourier_motzkin.Contradiction} included, so a hit returns exactly
    what the solve would have returned.  The solvers are deterministic and
    their answers immutable, so sharing one answer between callers is
    safe.

    {b Scoped.}  The table is domain-local, fresh in each {!scoped} call,
    restored to the enclosing one on exit (by return or exception) and
    dropped with its scope.  Outside any scope every leaf solves, exactly
    as if this module did not exist.  There is no size cap and no switch.
    One answer may enter a scope from outside: [Harness.Pipeline.run]
    installs an operator's dependence analysis
    ([Deps.Analysis.install]) into the scope it runs in, so the analysis
    runs once per operator rather than once per version.  It is exact
    because only running the analysis on a kernel makes an installable
    value, and the table answers only kernels of that kernel's digest,
    whose dependences are the same: the entry is exactly what
    [Deps.Analysis.dependences] would compute there.

    {b Checkers stay outside.}  [Harness.Eval.evaluate_op] and
    [Fuzz.Check.run] (around each of its versions' compiles) open a
    scope, and so do other callers around their compile work.
    [Harness.Pipeline.run] joins the caller's scope ({!shared}): serve,
    the CLI and [Eval.evaluate_cpu_op] call it outside any, so each run
    gets its own.  An independent check — serve's legality check, which
    runs after [Pipeline.run] returns; the fuzzer's checks; the tests'
    cold ILP oracles; perfbench's zoo replay, which runs after
    [evaluate_op] returns and schedules through [Eval.timed_schedule], one
    scope per schedule — must share no scope with what it checks, so that
    a memo hit is never the evidence for a result the code presents as
    checked.

    {b Counters.}  [simplex.solves] counts only LPs actually solved;
    [simplex.memo_hits] and [fm.memo_hits] count the answers taken from the
    table; each other table counts its own hits. *)

val scoped : (unit -> 'a) -> 'a
(** [scoped f] runs [f] with a fresh, empty table for every leaf on the
    calling domain and restores the enclosing scope (or none) when [f]
    returns or raises. *)

val shared : (unit -> 'a) -> 'a
(** [shared f] runs [f] in the calling domain's current scope, or in a
    fresh one ([scoped f]) when none is open. *)

type scope

val fresh : unit -> scope

val within : scope -> (unit -> 'a) -> 'a
(** [within s f] runs [f] inside [s], which keeps its tables from one
    entry to the next ([scoped f] is [within (fresh ()) f]), and restores
    the enclosing scope on exit.  A scope belongs to its domain. *)

(** What one leaf memoizes. *)
module type TABLE = sig
  type key
  type value

  val hash : key -> int
  (** Structural, consistent with [equal]. *)

  val equal : key -> key -> bool

  val hits : Obs.Counters.t
  (** Counts the lookups answered from the table. *)
end

module Make (T : TABLE) : sig
  val find : T.key -> (unit -> T.value) -> T.value
  (** [find k solve] is [solve ()] outside a scope.  Inside one it is the
      value stored for [k] in the current scope, or else [solve ()], then
      stored.  A [solve] that raises stores nothing. *)

  val add : T.key -> T.value -> unit
  (** [add k v] stores [v] for [k] in the current scope, as if a [find]
      there had computed it; outside a scope it does nothing.  The caller
      vouches that [v] is what [find k] would compute. *)
end

val hash_constrs : int -> Constr.t list -> int
(** [hash_constrs h cs] folds the constraints' hashes into [h], in order. *)

val equal_constrs : Constr.t list -> Constr.t list -> bool
(** Equal lists, position by position; physically equal lists or
    constraints are equal without a look inside. *)
