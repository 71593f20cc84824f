(** Host C compiler discovery and capability probes.

    The CPU backend degrades to emit-only when no toolchain is present, so
    everything here is total: {!detect} returns an option, probes return
    booleans, and nothing raises for a missing or broken compiler. *)

type t
(** A resolved compiler: its path, its [--version] line and a digest of
    both. *)

val detect : unit -> t option
(** The host compiler, memoized per value of [AKG_CC].  [AKG_CC] set to a
    name or path selects that compiler, and [none], [off], [disabled] or
    the empty string disables the backend; unset, the first of [cc],
    [gcc], [clang] on [PATH] that answers [--version]. *)

val cc : t -> string
(** The compiler's executable path. *)

val version : t -> string
(** First line of [cc --version], [""] if unknowable. *)

val digest : t -> string
(** Identity of the compiler, for content-addressed artifacts. *)

val run_capture : string array -> (Unix.process_status * string) option
(** [run_capture argv] runs [argv] with stdout and stderr captured
    together; [None] when it cannot be started.  Never raises. *)

val isa_flags : Gpusim.Machine.isa -> string list
(** The [-m] flags that let the compiler use an ISA's intrinsics. *)

val probe_memo : (string, bool * bool) Hashtbl.t
(** Every probe's (compiled, ran) answer, keyed by compiler digest, flags
    and snippet.  Guarded by a mutex: worker domains probe through
    [Runner.build_source]. *)

val supports_isa : t -> Gpusim.Machine.isa -> bool
(** The ISA's probe snippet compiles with its {!isa_flags}. *)

val executes_isa : t -> Gpusim.Machine.isa -> bool
(** The ISA's probe snippet compiles and its executable runs on this
    host: false for an ISA the compiler accepts but the host CPU cannot
    execute.  One compile-and-run answers both this and {!supports_isa}. *)

val supports_openmp : t -> bool
(** A [#pragma omp parallel for] snippet compiles with [-fopenmp]. *)

val kernel_flags : t -> Gpusim.Machine.t -> string list
(** Flags for compiling an emitted kernel for a machine to a shared
    object: [-O2 -fPIC -shared], the ISA's flags, [-fopenmp] on a
    multi-core profile when {!supports_openmp}, and [-lm]. *)
