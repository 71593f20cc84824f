(** Structural fingerprints of traces.

    {!of_trace} folds a (normalized) trace into what the scheduling
    pipeline {e decided}, with everything wall-clock dependent removed:
    the event-kind histogram, the per-operator [harness.op] summaries,
    the per-run [scheduler.done] statistics and the [vectorizer.scenario]
    outcomes.  Two fingerprints of the same revision compare {!equal};
    {!diff} lists exactly which decisions changed.  Fingerprints
    round-trip through JSON ({!write_file}, then {!load} or {!of_json}) so
    goldens can be committed under [test/golden/] and gated in CI. *)

val schema_name : string
(** ["akg-repro-fingerprint"]. *)

val version : int

type section = (string * (string * Json.t) list) list
(** Ordered [key -> fields] map; a repeated key gets an occurrence
    suffix ([kernel@1] for the second scheduler run of [kernel]). *)

type t = {
  kinds : (string * int) list;  (** event-kind histogram, sorted *)
  ops : section;  (** [harness.op] fields keyed by operator *)
  schedules : section;  (** [scheduler.done] fields keyed by kernel *)
  scenarios : section;  (** [vectorizer.scenario] fields keyed by [stmt#alt] *)
}

val of_trace : Tracefile.t -> t
(** Normalizes first, so raw and normalized traces fingerprint alike. *)

val of_json : Json.t -> (t, string) result

val load : string -> (t, string) result
(** Reads a fingerprint JSON file (as written by {!write_file}). *)

val write_file : string -> t -> unit
(** Writes the fingerprint as JSON, one section per line. *)

type change = {
  section : string;  (** [kinds], [ops], [schedules] or [scenarios] *)
  key : string;
  field : string;  (** [""] when a whole entry appeared/disappeared *)
  old_v : string option;  (** rendered JSON; [None] = absent *)
  new_v : string option;
}

val diff : t -> t -> change list
(** Empty iff the two fingerprints are structurally identical. *)

val equal : t -> t -> bool

val pp_change : Format.formatter -> change -> unit
val pp_changes : Format.formatter -> change list -> unit

val report : Format.formatter -> Tracefile.t -> unit
(** Human drill-down of one trace: kind histogram, per-scheduler-run
    table (ILP solves, screened dimensions, injected constraints of the
    solved ILPs, backtracking ladder, solve time), vectorization
    scenarios (widths, dims, scores) and the per-operator summary with
    its time split.  Timing columns read the raw trace; pass an
    un-normalized one. *)
