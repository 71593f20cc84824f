(** Greedy counterexample minimization.

    Given a failing case and a predicate deciding whether a candidate
    still fails, repeatedly applies the smallest-first reductions —
    drop a statement, replace a right-hand side by one of its subterms,
    halve a loop extent, zero out a dimension — accepting the first
    candidate that still fails, until a fixpoint (or the step budget) is
    reached.  Tensor declarations are pruned and tightened at the end.
    Candidates that no longer convert to a valid kernel are rejected
    automatically, so the predicate only ever sees well-formed cases. *)

val candidates : Case.t -> Case.t list
(** All one-step reductions of a case, most aggressive first (exposed
    for tests). *)

val minimize : still_fails:(Case.t -> bool) -> Case.t -> Case.t * int
(** [minimize ~still_fails c] returns the minimized case and the number
    of accepted shrink steps.  [still_fails] must be true of [c] itself
    for the result to be meaningful; the step budget bounds the number of
    {e accepted} reductions at 1000. *)
