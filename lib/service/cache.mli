(** Persistent, content-addressed compile cache.

    One directory, one JSON file per entry, named [<digest>.json] after
    its {!Key}.  Entries wrap an arbitrary JSON payload (a serialized
    {!Harness.Eval.op_result}, a serve reply) in a self-describing
    envelope [{check; schema; format; digest; label; payload}], where
    [check], first and fixed-width, is the MD5 of every byte after it.

    Robustness over cleverness:
    - writes go to a temp file in the same directory and are published
      with an atomic [rename], so readers never see torn entries;
    - every lookup verifies the check, then re-validates schema, format
      version and digest; a truncated, corrupt or mismatched file counts
      [service.cache_corrupt], is deleted, and reads as a miss — the
      caller recomputes;
    - the directory is LRU size-capped (hits refresh mtime).

    The cap rule.  Each handle keeps a running count of entry bytes: one
    directory scan sets it when the handle opens, and each store adds its
    entry's size less the size of the entry it replaces, so a store below
    the cap costs no directory walk.  Evictions and dropped corrupt
    entries subtract what they delete.  When a store takes the count past
    [max_bytes], the store rescans the directory, resets the count to the
    true total and, if that is over the cap, evicts oldest-mtime-first
    (never the entry just published) down to a low-water mark of 7/8 of
    the cap, counting [service.cache_evictions].  Entries other handles
    or processes write are seen at that handle's next rescan, not before.
    Each scan counts [service.cache_scans] and emits one
    [service.cache_scan] trace event (entries, bytes, evicted).

    Counters: [service.cache_hits], [service.cache_misses],
    [service.cache_stores], [service.cache_corrupt],
    [service.cache_evictions], [service.cache_scans].  Spans:
    [service.cache_find], [service.cache_store]. *)

type t

val mkdir_p : string -> unit
(** Creates the directory and its missing parents; an existing one is
    left as it is. *)

val open_ : ?max_bytes:int -> string -> t
(** Creates the directory ({!mkdir_p}), and scans it once to set the
    handle's running byte count (it evicts nothing).  [max_bytes] is the
    size cap, 256 MiB by default. *)

val dir : t -> string

val find : t -> Key.t -> Obs.Json.t option
(** The stored payload, or [None] (missing, corrupt, or format/digest
    mismatch — never raises on bad cache state).  The entry is read
    through [Unix] into one buffer of the size [fstat] reports (no
    channel buffer, no seeks), then its check, its envelope and its
    digest are verified before a hit refreshes its mtime. *)

val store : t -> Key.t -> Obs.Json.t -> unit
(** Atomically writes the entry, then enforces the size cap: amortized
    O(1), with a directory rescan only when the running count passes the
    cap.
    @raise Sys_error when the cache directory itself is unwritable. *)

val entry_path : t -> Key.t -> string
(** Where an entry lives on disk (for tests and debugging). *)

type stats = { entries : int; bytes : int }

val stats : t -> stats
(** Entry count and total entry bytes on disk right now, from a directory
    walk (not the running count, so every writer's entries are included)
    — what the serve front end exports as the [service.cache_entries]
    and [service.cache_bytes] gauges. *)
