(** Minimal JSON values for trace emission.

    Deliberately tiny: just enough structure to serialize observability
    events and read them back for diffing, with no external dependency.
    Serialization round-trips: [of_string (to_string v)] yields a value
    equal to [v] for every finite [v] (non-finite floats are emitted as
    [null], the only lossy case). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

val to_string : t -> string
(** Compact single-line rendering, valid JSON.  Floats use enough digits
    to round-trip exactly; NaN and infinities become [null]. *)

val pp : Format.formatter -> t -> unit
(** Same rendering as {!to_string}. *)

val of_string : string -> (t, string) result
(** Parser for the values {!to_string} produces (and ordinary JSON):
    numbers without a fractional part or exponent parse as [Int],
    everything else as [Float].  Numbers follow the RFC 8259 grammar
    exactly — a leading [+], leading zeros, a trailing [.] or a bare
    exponent are rejected.  Integer literals beyond native [int]
    precision fall back to [Float].  A [\u] escape of a UTF-16 surrogate
    must be a high one directly followed by a [\u] low one (decoded to
    one 4-byte UTF-8 character); a lone or mispaired surrogate is an
    error.  The error string carries a character offset. *)

val of_file : string -> (t, string) result
(** The file's contents through {!of_string}.  A file that cannot be read
    is [Error] with the [Sys_error] text; a parse error is
    [Error "PATH: msg"]. *)

val to_file : string -> t -> unit
(** Writes {!to_string} and a newline to the file, replacing it.  A file
    that cannot be written raises [Sys_error]. *)

val equal : t -> t -> bool
(** Structural equality; [Assoc] fields compare in order, floats by
    [Float.equal] (so [NaN] equals itself and [0.] differs from [-0.]). *)

val member : string -> t -> t option
(** First binding of a key in an [Assoc]; [None] otherwise. *)
