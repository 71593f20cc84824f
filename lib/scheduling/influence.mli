(** Influence constraint trees (Section IV-A4, Fig. 3).

    An ordered tree whose node at depth [d] carries affine constraints on
    scheduling coefficients of dimensions [0..d] (named via {!Space});
    sibling order encodes priority (leftmost first).  A non-linear optimizer
    builds the tree; the scheduler traverses it depth-first, injecting each
    node's constraints when computing the corresponding dimension and
    backtracking to lower-priority alternatives when the ILP fails.
    Nodes inject constraints only: the paper's cost-function hook (end of
    Section IV-A4), unused there, is not implemented, so every dimension
    ILP minimizes exactly {!Builders.objectives}. *)

open Polyhedra

type node = {
  label : string;  (** human-readable tag for tracing *)
  constrs : Constr.t list;
      (** desirable affine constraints over {!Space} coefficient variables
          of dimensions up to this node's depth *)
  require_parallel : bool;
      (** meta-requirement: the dimension only counts as successful if it is
          coincident (end of Section IV-A4) *)
  payload : Schedule.annotation list;
      (** annotations surfaced on the schedule when construction
          terminates at (a leaf below) this node: the accepted branch, the
          rows prepared for vectorization, the tile shape *)
  children : node list;
}

type t = node list
(** Prioritized alternatives for the outermost dimension. *)

val node :
  ?label:string ->
  ?require_parallel:bool ->
  ?payload:Schedule.annotation list ->
  ?children:node list ->
  Constr.t list ->
  node

val empty : t
(** No influence: the scheduler behaves exactly like the baseline. *)

(** {1 Building client branches}

    Both clients ({!Vectorizer.Treegen} and {!Tiling}) pin statement rows
    to iterators and chain one node per scheduling dimension. *)

val coef : stmt:string -> dim:int -> string -> Linexpr.t
(** The coefficient of an iterator in a statement's row at [dim]
    ({!Space.coef_var}). *)

val pin_row :
  stmt:string -> dim:int -> iter:string -> all_iters:string list -> Constr.t list
(** Constraints making [stmt]'s row at [dim] exactly [iter]: its
    coefficient is 1, every other iterator's in [all_iters] is 0. *)

val chain :
  label:string ->
  payload:Schedule.annotation list ->
  Ir.Kernel.t ->
  (int -> Constr.t list) ->
  node
(** [chain ~label ~payload kernel at] is one branch: a chain of nodes, one
    per depth [d] below the kernel's deepest statement (at least one),
    carrying [at d].  Inner nodes are labelled [label@d], the leaf
    [label@leaf], and the leaf carries [payload]. *)

val select : int list -> t -> t
(** [select order t] reorders and subsets the root alternatives: the
    result keeps branch [List.nth t i] for each [i] of [order], in
    [order]'s order.  Out-of-range and repeated indices are ignored, so
    any integer list is a valid selection; [select [] t] is {!empty}
    (schedule exactly like the baseline).  Sibling order encodes
    priority, so reordering changes which wish the scheduler tries — and
    backtracks from — first; [akg_repro paper ablation-scenarios] cuts
    the tree this way. *)

val depth : t -> int
(** Length of the deepest root-to-leaf path. *)

val size : t -> int

val leaves : t -> node list

val pp : Format.formatter -> t -> unit
(** Renders the tree in the style of Fig. 3. *)

val to_string : t -> string
