(** Mergeable log-bucketed latency histograms.

    A histogram records float observations (conventionally seconds) into
    geometric buckets of ratio [2^(1/8)], so any quantile read back from
    a snapshot is within ~4.3% relative error of the true order
    statistic while the storage stays a few dozen integers regardless of
    how many values were recorded.  Histograms are registered by name
    like {!Counters} and summarized by the [--stats]/[--stats-json]
    reports and the {!Metrics} exposition.

    {b Determinism.}  Bucket counts are exact integers and the running
    sum is kept in fixed point (units of [2^-30]), so merging per-task
    deltas in task-index order reproduces a sequential run's snapshot
    {e bit-for-bit} — the property [Service.Pool] relies on to keep
    [--jobs N] observationally identical to [--jobs 1].

    {b Domain safety.}  Recording takes no lock: the coordinating domain
    writes each histogram's own cell, and worker domains run inside an
    {!Obs.scoped} capture, which shards recording into a domain-local
    table; the coordinator folds it back with {!Obs.merge} after the
    join.  Inside a capture, {!find} and [count] read the shared cell
    plus the capture's delta. *)

type t
(** A registered histogram handle. *)

val create : ?doc:string -> string -> t
(** [create name] registers a histogram (or returns the existing handle
    when [name] is already registered).  Conventional names are dotted
    paths such as ["serve.request_seconds"]. *)

val observe : t -> float -> unit
(** Records one observation.  Values at or below [1e-9] share the floor
    bucket (so zero and negative values are safe), everything else lands
    in its geometric bucket.  Lock-free. *)

val name : t -> string
val doc : t -> string

val count : t -> int
(** Observations recorded so far (shared plus the current capture). *)

(** A point-in-time summary: exact count/min/max, fixed-point sum, and
    the sparse (bucket index, count) list sorted by index. *)
type snapshot = {
  name : string;
  count : int;
  sum_fp : int;  (** sum in units of [2^-30]; see {!sum} *)
  min : float;   (** [+inf] when empty *)
  max : float;   (** [-inf] when empty *)
  buckets : (int * int) list;
}

val snapshot : unit -> snapshot list
(** Every registered histogram, sorted by name (including empty ones). *)

val docs : unit -> (string * string) list
(** All registered histograms with their doc strings, sorted by name. *)

val find : string -> snapshot option
(** Snapshot of the histogram registered under a name. *)

val sum : snapshot -> float
(** The observation sum, converted back from fixed point. *)

val mean : snapshot -> float
(** [sum / count]; [0.] when empty. *)

val quantile : snapshot -> float -> float
(** [quantile s q] estimates the [q]-quantile ([0. <= q <= 1.]) from the
    buckets: the midpoint of the bucket holding rank [ceil (q * count)],
    clamped into the exact [min, max].  Relative error is bounded by
    [(gamma - 1) / (gamma + 1)] with [gamma = 2^(1/8)], about 4.3%.
    [0.] when empty. *)

val bucket_upper : int -> float
(** Upper bound [gamma^i] of bucket [i]. *)

val reset_all : unit -> unit
(** Empties every registered histogram (registration survives). *)

val summary_json : snapshot -> Json.t
(** [{count, sum, min, max, mean, p50, p90, p99, p999}] — the shape
    embedded in stats JSON and bench files. *)

val pp_table : Format.formatter -> unit -> unit
(** Human-readable table of the nonempty histograms (count, mean, p50,
    p99, max). *)
