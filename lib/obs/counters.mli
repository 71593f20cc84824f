(** Named monotone event counters.

    A counter is created once, at module initialization time, and
    incremented from hot paths: an increment is a single mutable-field
    update on a pre-resolved handle, so instrumented code pays no lookup
    and no allocation.  All counters live in one global registry so the
    harness can snapshot, report and reset them between measured runs.

    Counters only move up ({!incr}, {!add} with a non-negative amount);
    the only way down is {!reset_all}, which zeroes every registered
    counter at once.

    {b Domain safety.}  Increments are plain updates and the shared
    registry is never written from hot paths, so concurrent increments
    outside a capture from several domains would race.  Worker domains
    therefore run inside an {!Obs.scoped} capture, which buffers all
    increments in a domain-local array indexed by counter; the coordinating domain
    applies them with {!Obs.merge} after joining the worker, in a
    deterministic order.  Inside a capture, reads ({!value}, {!find},
    {!snapshot}) see the shared value plus the capture's delta, so
    delta-around-a-call arithmetic keeps working and observes only the
    current task's increments.

    Reads never take a lock: the registry is republished as an immutable
    list on every {!create}, so {!find}/{!snapshot}/{!docs} from worker
    domains (delta-around-a-call patterns under [--jobs]) contend with
    nothing — only {!create} itself serializes on a mutex. *)

type t
(** A registered counter handle. *)

val create : ?doc:string -> string -> t
(** [create name] registers a counter (or returns the existing handle when
    [name] is already registered — counters are identified by name).
    Conventional names are dotted paths such as ["ilp.solves"]. *)

val incr : t -> unit

val add : t -> int -> unit
(** Adds a non-negative amount.
    @raise Invalid_argument on a negative amount (counters are monotone). *)

val value : t -> int

val name : t -> string

val doc : t -> string

val find : string -> int
(** Current value of the counter registered under a name; [0] when no such
    counter exists (convenient for cross-library deltas). *)

val reset_all : unit -> unit
(** Zeroes every registered counter (registration survives). *)

val snapshot : unit -> (string * int) list
(** All registered counters with their current values, sorted by name. *)

val docs : unit -> (string * string) list
(** All registered counters with their doc strings, sorted by name —
    what the {!Metrics} exposition renders as [# HELP] lines. *)

val pp_table : Format.formatter -> unit -> unit
(** Human-readable two-column table of {!snapshot}, skipping zeros. *)
