(** Scenario-set to influence-constraint-tree translation (Section V).

    Each scenario pins the last scheduling dimensions of a statement to
    specific iterators (innermost first prepared for explicit vector types);
    the translation is the paper's: innermost coefficients equal to the
    access-function coefficients (unit pins in this IR), following
    dimensions keep previously-fixed iterators at zero, everything else
    free.  Higher-priority variants influence fusion (the joint pins align
    statements positionally); lower-priority variants keep only the
    vectorization constraints. *)

val influence_for : ?weights:Costmodel.weights -> Ir.Kernel.t -> Scheduling.Influence.t
(** The constraint tree injected for the {b infl} and {b novec} compiler
    versions, with at most 8 root alternatives (the paper's setting).
    Each branch is an {!Scheduling.Influence.chain} whose leaf carries the
    branch label ({!Scheduling.Schedule.Branch}) and one
    {!Scheduling.Schedule.Vector} per statement prepared for vectors
    wider than 1. *)

val scenario_sets : ?weights:Costmodel.weights -> Ir.Kernel.t -> Scenario.t list list
(** The underlying scenario sets (printed by the Fig. 3 benchmark). *)
