(** Influence constraint trees (Section IV-A4, Fig. 3).

    An ordered tree whose node at depth [d] carries affine constraints on
    scheduling coefficients of dimensions [0..d] (named via {!Space});
    sibling order encodes priority (leftmost first).  A non-linear optimizer
    builds the tree; the scheduler traverses it depth-first, injecting each
    node's constraints when computing the corresponding dimension and
    backtracking to lower-priority alternatives when the ILP fails. *)

open Polyhedra

type node = {
  label : string;  (** human-readable tag for tracing *)
  constrs : Constr.t list;
      (** desirable affine constraints over {!Space} coefficient variables
          of dimensions up to this node's depth *)
  require_parallel : bool;
      (** meta-requirement: the dimension only counts as successful if it is
          coincident (end of Section IV-A4) *)
  payload : (string * string) list;
      (** key/value annotations surfaced on the schedule when construction
          terminates at (a leaf below) this node — e.g. which dimension was
          prepared for vectorization *)
  objectives : (int * Polyhedra.Linexpr.t) list;
      (** cost-function injection (end of Section IV-A4): extra expressions
          over coefficient variables to minimize, merged into the
          scheduler's lexicographic objective list
          ({!Builders.objectives}) at the given priority: 0 = before the
          proximity bound [w], 1 = after [w] and before the constant sum,
          2 = before the loop-order tie-break, 3 or more = last.  Softer
          than constraints: they guide without restricting the space. *)
  children : node list;
}

type t = node list
(** Prioritized alternatives for the outermost dimension. *)

val node :
  ?label:string ->
  ?require_parallel:bool ->
  ?payload:(string * string) list ->
  ?objectives:(int * Polyhedra.Linexpr.t) list ->
  ?children:node list ->
  Constr.t list ->
  node

val empty : t
(** No influence: the scheduler behaves exactly like the baseline. *)

val select : int list -> t -> t
(** [select order t] reorders and subsets the root alternatives: the
    result keeps branch [List.nth t i] for each [i] of [order], in
    [order]'s order.  Out-of-range and repeated indices are ignored, so
    any integer list is a valid selection; [select [] t] is {!empty}
    (schedule exactly like the baseline).  Sibling order encodes
    priority, so reordering changes which wish the scheduler tries — and
    backtracks from — first; the bench's branch-budget ablation cuts the
    tree this way. *)

val depth : t -> int
(** Length of the deepest root-to-leaf path. *)

val size : t -> int

val leaves : t -> node list

val pp : Format.formatter -> t -> unit
(** Renders the tree in the style of Fig. 3. *)

val to_string : t -> string

val to_json : t -> Obs.Json.t
(** Structural JSON rendering (labels, pretty-printed constraints,
    payloads) for trace emission. *)
