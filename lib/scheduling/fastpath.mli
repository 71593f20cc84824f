(** Sub-ILP scheduling fast path: fusion and dimension matching.

    Acharya and Bondhugula observe that the vast majority of Pluto-style
    schedules need no ILP at all — the per-dimension hyperplanes a
    lexicographic solver would return can be read off the dependence
    structure directly.  This module builds that candidate for one
    scheduling dimension and verifies, by checking each dependence
    relation semantically (via {!Polyhedra.Polyhedron.nonneg_on} and
    friends, one small LP per relation instead of a Farkas-expanded
    coefficient tableau), that the candidate satisfies exactly the
    constraint system the exact solver would have been given.

    The candidate is constructed to be {e provably} the exact ILP's
    unique lexicographic optimum whenever it is accepted:

    - the proximity bound [w] and every free constant sit at zero — the
      absolute lower bound of the two leading objectives of
      {!Builders.objectives} — and feasibility of that zero point is what the
      validity/coincidence/proximity checks establish;
    - each statement's iterator row is the {e unique} cheapest row (under
      the ILP's position-weighted tie-breaking objective) that satisfies
      the progression constraint and any influence-pinned coefficients,
      found by enumerating rows in ascending cost; a cost tie rejects the
      attempt as {!Ambiguous} rather than guessing.

    Accepted candidates therefore commit bit-identical schedule rows to
    what [`Ilp_only] would compute; every reject falls back to the exact
    warm-started ILP for this dimension only.  Influence constraints
    compose rather than being bypassed: single-variable equalities (the
    only form the vectorizer's tree generator emits) are folded into the
    candidate, anything else is checked at the candidate point or
    rejected to the ILP. *)

open Polybase
open Polyhedra

type problem = {
  stmts : Ir.Stmt.t list;
  dim : int;  (** loop ordinal of the dimension being scheduled *)
  with_progression : bool;
      (** whether the exact solver would include progression constraints
          (it omits them only when every statement is already full-rank
          and the dimension exists purely to consume influence nodes) *)
  prev_rows : Ir.Stmt.t -> Linalg.mat;
      (** iterator coefficients of the rows committed so far *)
  dstates : Builders.dep_state array;  (** the kernel's dependences *)
  dsat : bool array;  (** strong-satisfaction flags for [dstates] *)
}

type reject =
  | Influence_unsat
      (** injected constraints pin non-row variables, conflict, leave the
          coefficient range, or fail at the candidate point *)
  | No_candidate  (** no progressing row within bounds (or budget) *)
  | Ambiguous  (** minimal-cost progressing row is not unique *)
  | Invalid of Builders.dep_state
      (** candidate violates validity on this dependence's band relation
          (the first such dependence in [dstates] order) *)
  | Not_coincident  (** non-zero reuse distance on an active dependence *)
  | Not_proximate  (** candidate needs a non-zero proximity bound *)

val reject_to_string : reject -> string

val is_dependence_reject : reject -> bool
(** The rejects where a structurally sound candidate existed but failed a
    semantic dependence check — the [scheduler.fastpath_validity_rejects]
    counter. *)

val attempt :
  coincident:bool ->
  infl_cs:Constr.t list ->
  problem ->
  (string -> Q.t, reject) result
(** Build and check the candidate for one dimension.  [Ok point] is an
    assignment over the {!Space} coefficient variables, directly suitable
    for the scheduler's [commit]; unlisted variables evaluate to zero,
    matching the ILP optimum.  [infl_cs] are the prepared
    (already substituted) influence constraints of the current node,
    exactly as the exact solver would receive them. *)
