(** Semantic validation of schedules against dependence relations.

    A schedule is legal when every dependence is strongly satisfied: the
    target instance is scheduled at a lexicographically strictly later
    date than the source instance, for every dependent pair.
    Used by the test-suite as an oracle independent of the scheduler's own
    constraint construction. *)

val check :
  Schedule.t -> Ir.Kernel.t -> Deps.Dependence.t list -> (unit, string) result
(** [Error msg] pinpoints the first dependence violated (scheduled backwards
    or never strictly separated). *)

val is_legal : Schedule.t -> Ir.Kernel.t -> Deps.Dependence.t list -> bool
