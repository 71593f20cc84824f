(** Beam search over the candidate space.

    The search keeps a population of candidates (seeded with
    {!Candidate.baseline} plus random mutations), scores every
    (operator, candidate) pair with the {!Oracle}, ranks candidates by
    their geometric-mean slowdown relative to the baseline across the
    whole corpus, keeps the best [beam], and breeds each survivor into
    mutated children for the next round.

    Two properties the tests pin:

    {ul
    {- {b Determinism}: generation is driven by one {!Fuzz.Rng} stream
       on the coordinating domain, oracle misses are sharded through
       {!Service.Pool.map} (input-ordered results) and memoized by
       (operator, candidate digest) — so the same [config] and corpus
       produce the same records at any [--jobs] and regardless of what
       the compile cache already holds.}
    {- {b Never worse than baseline}: the baseline is scored like any
       other candidate, and each operator's winning candidate is the
       {e strictly} cheapest in generation order — the baseline, scored
       first, wins all ties.  Hence every record satisfies
       [tuned_us <= baseline_us] by construction.}} *)

type config = {
  beam : int;  (** survivors per round *)
  rounds : int;  (** scoring rounds; population size is [2 * beam] *)
  seed : int;
}

val default_config : config
(** [{ beam = 4; rounds = 3; seed = 42 }]. *)

type op_outcome = {
  op : string;
  kernel : Ir.Kernel.t;
  baseline_m : Oracle.measurement;
  best : Candidate.t;
  best_m : Oracle.measurement;  (** [best_m.time_us <= baseline_m.time_us] *)
  scored : int;  (** candidates evaluated on this operator *)
}

type result = {
  outcomes : op_outcome list;  (** corpus order; ops whose baseline fails are dropped *)
  ranking : Candidate.t list;  (** final population, corpus-geomean best first *)
  config : config;
  machine : string;
}

val run :
  ?cache:Service.Cache.t ->
  ?jobs:int ->
  ?oracle:(Ir.Kernel.t -> Candidate.t -> Oracle.measurement option) ->
  ?machine:Gpusim.Machine.t ->
  ?progress:(string -> unit) ->
  config ->
  (string * Ir.Kernel.t) list ->
  result
(** Runs the search on a corpus of named operators.  [?oracle] replaces
    {!Oracle.measure}'s compute step (tests rig it to plant an optimum);
    when it is supplied the compile cache is bypassed.  [?cache] memoizes
    real evaluations across runs; lookups and stores stay on the calling
    domain.  [?progress] is called with a short line per round. *)

val to_records : result -> Record.t list
(** One {!Record.t} per outcome, fingerprinted with
    {!Fingerprint.of_kernel}; when several corpus operators share a
    fingerprint the cheapest tuned time wins the slot. *)
