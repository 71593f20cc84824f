(** Deterministic pseudo-random streams for the fuzzer.

    A thin splitmix64 generator: the same [(seed, index)] pair always
    yields the same stream, on every platform and in every process —
    replay files only need to store seeds, and a fuzz run can be
    reproduced case-by-case.  Nothing here touches [Random]. *)

type t

val make : seed:int -> index:int -> t
(** Independent stream for case [index] of a run seeded with [seed]:
    streams of different indices are decorrelated by the splitmix64
    finalizer, not by sequential jumps, so cases can be regenerated in
    isolation. *)

val int : t -> int -> int
(** [int t n] draws uniformly from [0 .. n-1].
    @raise Invalid_argument when [n <= 0]. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list.
    @raise Invalid_argument on an empty list. *)

val shuffle : t -> 'a list -> 'a list
(** Uniform permutation. *)
