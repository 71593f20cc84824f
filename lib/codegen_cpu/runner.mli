(** Compile-and-execute engine for the CPU backend.

    Kernels compile to content-addressed shared objects in a cache
    directory.  A small generic host executable, compiled once per
    toolchain, loads a kernel and runs it over flat f64 buffers exchanged
    through files, so a crashing kernel cannot take the caller down. *)

type error =
  | No_compiler
  | Isa_unsupported of { machine : string; detail : string }
  | Compile_failed of { what : string; log : string }
  | Exec_failed of { status : string; log : string }

val error_message : error -> string

type t

val create : ?cache_dir:string -> unit -> (t, error) result
(** A runner on the detected toolchain, caching under
    [cache_dir/cpu] (default [$AKG_CPU_CACHE], else the temp directory's
    [akg-repro-cpu]); compiles the host executable unless it is cached. *)

val toolchain : t -> Toolchain.t
val cache_dir : t -> string

type built = {
  source_path : string;
  so_path : string;
  flags : string list;
  compile_s : float;  (** 0 on a cache hit *)
  cache_hit : bool;
}

val build_source : t -> machine:Gpusim.Machine.t -> string -> (built, error) result
(** Compiles emitted C for [machine], or finds it in the cache (the key
    is the source, the toolchain and the flags). *)

val build : t -> ?machine:Gpusim.Machine.t -> Codegen.Compile.compiled -> (built, error) result
(** {!build_source} of the kernel's {!Cemit.emit}. *)

val execute :
  ?reps:int -> t -> built -> inputs:float array array -> (float array array * float, error) result
(** Runs a build [reps] times (default 3) from [inputs] and returns the
    final buffers with the best run's seconds.  A shared object the host
    cannot load is deleted, recompiled once from its source and retried. *)

val native_profile : t -> Gpusim.Machine.t
(** The best CPU profile this host both compiles and runs. *)
