(** Content-addressed cache keys.

    A key is a stable digest of everything a compile+simulate result
    depends on: the kernel's name and {!Ir.Kernel.digest}, the machine
    profile (every field), the compiler version ([isl]/[novec]/[infl],
    or a coarser entry tag such as ["eval"] for whole four-version
    results), free-form flags (the entry kind), and the cache format
    version.  Equal inputs digest equally across
    processes and runs; any change — including a {!format_version} bump
    — changes the digest, so stale on-disk entries turn into plain
    misses. *)

type t

val format_version : int
(** Current cache-format version; part of every digest preimage.  It is
    bumped whenever a stored payload's format changes, the set of
    columns in an ["eval"] entry included, so no key needs to restate
    the format. *)

val make :
  ?format_version:int ->
  ?flags:(string * string) list ->
  kernel:Ir.Kernel.t ->
  machine:Gpusim.Machine.t ->
  version:string ->
  unit ->
  t
(** [flags] are sorted before digesting, so flag order never matters.
    [?format_version] exists for tests (simulating a format bump); real
    callers take the default. *)

val digest : t -> string
(** Hex digest — the cache file's basename. *)

val format : t -> int

val label : t -> string
(** Human-readable ["kernel/version"] tag, for logs and serve replies. *)
