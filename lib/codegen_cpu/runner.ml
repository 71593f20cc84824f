(* Compile-and-execute engine for the CPU backend.

   The runner never dlopens anything in-process: a tiny generic host
   executable (compiled once per toolchain, content-addressed like the
   kernels) does the dlopen/dlsym/clock_gettime work and exchanges flat
   f64 buffers with us through files.  A dlopen failure in a crashing
   kernel therefore cannot take the OCaml process down, and a distinct
   host exit code (3) cleanly signals "shared object unusable", which is
   the corruption-recovery trigger: delete, recompile once, retry. *)

let c_compiles = Obs.Counters.create "cpu.compiles" ~doc:"CPU kernel shared objects compiled"

let c_cache_hits =
  Obs.Counters.create "cpu.compile_cache_hits"
    ~doc:"CPU kernel compilations answered by the content-addressed artifact cache"

let c_executions = Obs.Counters.create "cpu.executions" ~doc:"CPU kernel executions launched"

let c_exec_failures =
  Obs.Counters.create "cpu.exec_failures"
    ~doc:"CPU kernel executions that failed (including recovered corrupt artifacts)"

type error =
  | No_compiler
  | Isa_unsupported of { machine : string; detail : string }
  | Compile_failed of { what : string; log : string }
  | Exec_failed of { status : string; log : string }

let error_message = function
  | No_compiler ->
    "no host C compiler found (searched cc, gcc, clang on PATH; set AKG_CC to \
     override) — CPU backend degraded to emit-only"
  | Isa_unsupported { machine; detail } ->
    Printf.sprintf "host toolchain cannot target machine %s: %s" machine detail
  | Compile_failed { what; log } ->
    Printf.sprintf "C compilation of %s failed: %s" what (String.trim log)
  | Exec_failed { status; log } ->
    Printf.sprintf "kernel execution failed (%s): %s" status (String.trim log)

type t = { tc : Toolchain.t; dir : string; host : string }

let toolchain t = t.tc
let cache_dir t = t.dir

type built = {
  source_path : string;
  so_path : string;
  flags : string list;
  compile_s : float;
  cache_hit : bool;
}

(* ------------------------------------------------------------------ *)
(* filesystem plumbing                                                  *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* atomic: builds and executions may be sharded across Service.Pool
   domains sharing one runner *)
let uniq =
  let n = Atomic.make 0 in
  fun () -> Printf.sprintf "%d-%d" (Unix.getpid ()) (Atomic.fetch_and_add n 1)

(* atomic publish: write to a unique temp name in the same directory,
   then rename over the final path *)
let write_atomic path contents =
  let tmp = path ^ "." ^ uniq () ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc contents;
  close_out oc;
  Sys.rename tmp path

let default_cache_dir () =
  match Sys.getenv_opt "AKG_CPU_CACHE" with
  | Some d when d <> "" -> d
  | _ -> Filename.concat (Filename.get_temp_dir_name ()) "akg-repro-cpu"

(* ------------------------------------------------------------------ *)
(* the generic host runner                                              *)
(* ------------------------------------------------------------------ *)

let host_source =
  {c|/* akg-repro generic CPU kernel host: dlopen a kernel .so and run it
 * over flat f64 buffers.  exit codes: 0 ok, 2 usage/io, 3 shared object
 * unusable (corruption signal), 4 allocation failure. */
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <stdint.h>
#include <dlfcn.h>
#include <time.h>

int main(int argc, char **argv) {
  if (argc != 5) return 2;
  long reps = strtol(argv[4], 0, 10);
  if (reps < 1) reps = 1;
  void *h = dlopen(argv[1], RTLD_NOW | RTLD_LOCAL);
  if (!h) { fprintf(stderr, "dlopen: %s\n", dlerror()); return 3; }
  void (*kern)(double **) = (void (*)(double **))dlsym(h, "akg_kernel");
  if (!kern) { fprintf(stderr, "dlsym: %s\n", dlerror()); return 3; }
  FILE *fi = fopen(argv[2], "rb");
  if (!fi) return 2;
  uint64_t n;
  if (fread(&n, 8, 1, fi) != 1 || n == 0 || n > 65536) return 2;
  uint64_t *elems = malloc(n * sizeof *elems);
  double **init = malloc(n * sizeof *init);
  double **work = malloc(n * sizeof *work);
  if (!elems || !init || !work) return 4;
  for (uint64_t i = 0; i < n; ++i) {
    if (fread(&elems[i], 8, 1, fi) != 1) return 2;
    init[i] = malloc(elems[i] * 8 + 64);
    work[i] = malloc(elems[i] * 8 + 64);
    if (!init[i] || !work[i]) return 4;
    if (fread(init[i], 8, elems[i], fi) != elems[i]) return 2;
  }
  fclose(fi);
  double best = -1.0;
  for (long r = 0; r < reps; ++r) {
    for (uint64_t i = 0; i < n; ++i) memcpy(work[i], init[i], elems[i] * 8);
    struct timespec a, b;
    clock_gettime(CLOCK_MONOTONIC, &a);
    kern(work);
    clock_gettime(CLOCK_MONOTONIC, &b);
    double s = (double)(b.tv_sec - a.tv_sec) + 1e-9 * (double)(b.tv_nsec - a.tv_nsec);
    if (best < 0 || s < best) best = s;
  }
  FILE *fo = fopen(argv[3], "wb");
  if (!fo) return 2;
  if (fwrite(&n, 8, 1, fo) != 1) return 2;
  if (fwrite(&best, 8, 1, fo) != 1) return 2;
  for (uint64_t i = 0; i < n; ++i) {
    if (fwrite(&elems[i], 8, 1, fo) != 1) return 2;
    if (fwrite(work[i], 8, elems[i], fo) != elems[i]) return 2;
  }
  if (fclose(fo) != 0) return 2;
  return 0;
}
|c}

let compile_file tc ~flags ~src ~out ~what =
  let tmp = out ^ "." ^ uniq () ^ ".tmp" in
  (* -lfoo flags must follow the objects that use them for linkers that
     prune as-needed libraries *)
  let libs, opts = List.partition (fun f -> String.length f > 2 && String.sub f 0 2 = "-l") flags in
  let argv = Array.of_list ((Toolchain.cc tc :: opts) @ [ src; "-o"; tmp ] @ libs) in
  match Toolchain.run_capture argv with
  | Some (Unix.WEXITED 0, _) ->
    (try Sys.rename tmp out with Sys_error _ -> ());
    Ok ()
  | Some (_, log) ->
    (try Sys.remove tmp with Sys_error _ -> ());
    Error (Compile_failed { what; log })
  | None ->
    (try Sys.remove tmp with Sys_error _ -> ());
    Error (Compile_failed { what; log = "could not run " ^ Toolchain.cc tc })

let create ?cache_dir () =
  match Toolchain.detect () with
  | None -> Error No_compiler
  | Some tc -> (
    let dir =
      Filename.concat
        (match cache_dir with Some d -> d | None -> default_cache_dir ())
        "cpu"
    in
    (try mkdir_p dir
     with Unix.Unix_error _ | Sys_error _ -> ());
    if not (Sys.file_exists dir) then
      Error
        (Compile_failed { what = "cache directory"; log = "cannot create " ^ dir })
    else
      let host_digest =
        Digest.to_hex (Digest.string (host_source ^ "\x00" ^ Toolchain.digest tc))
      in
      let host = Filename.concat dir ("host-" ^ host_digest) in
      if Sys.file_exists host then Ok { tc; dir; host }
      else begin
        let src = Filename.concat dir ("host-" ^ host_digest ^ ".c") in
        write_atomic src host_source;
        match
          compile_file tc ~flags:[ "-O2"; "-ldl" ] ~src ~out:host ~what:"host runner"
        with
        | Ok () -> Ok { tc; dir; host }
        | Error e -> Error e
      end)

(* ------------------------------------------------------------------ *)
(* kernel compilation (content-addressed, atomic)                       *)
(* ------------------------------------------------------------------ *)

let build_source t ~(machine : Gpusim.Machine.t) source =
  if not (Toolchain.supports_isa t.tc machine.Gpusim.Machine.isa) then
    Error
      (Isa_unsupported
         { machine = machine.Gpusim.Machine.name;
           detail =
             Printf.sprintf "probe compile with %s failed"
               (String.concat " "
                  (Toolchain.isa_flags machine.Gpusim.Machine.isa))
         })
  else
    try
    let flags = Toolchain.kernel_flags t.tc machine in
    let digest =
      Digest.to_hex
        (Digest.string
           (String.concat "\x00" (source :: Toolchain.digest t.tc :: flags)))
    in
    let source_path = Filename.concat t.dir ("k" ^ digest ^ ".c") in
    let so_path = Filename.concat t.dir ("k" ^ digest ^ ".so") in
    if Sys.file_exists so_path then begin
      Obs.Counters.incr c_cache_hits;
      Ok { source_path; so_path; flags; compile_s = 0.0; cache_hit = true }
    end
    else begin
      Obs.Counters.incr c_compiles;
      Obs.Span.with_ "cpu.compile" @@ fun () ->
      write_atomic source_path source;
      let r, compile_s =
        Obs.Span.timed (fun () ->
            compile_file t.tc ~flags ~src:source_path ~out:so_path ~what:"kernel")
      in
      match r with
      | Ok () -> Ok { source_path; so_path; flags; compile_s; cache_hit = false }
      | Error e -> Error e
    end
    with Sys_error msg | Unix.Unix_error (_, msg, _) ->
      Error (Compile_failed { what = "kernel artifacts"; log = msg })

let build t ?(machine = Gpusim.Machine.scalar_1core) compiled =
  build_source t ~machine (Cemit.emit ~machine compiled)

(* ------------------------------------------------------------------ *)
(* execution                                                            *)
(* ------------------------------------------------------------------ *)

let write_buffers path (inputs : float array array) =
  let b = Buffer.create 4096 in
  Buffer.add_int64_le b (Int64.of_int (Array.length inputs));
  Array.iter
    (fun a ->
      Buffer.add_int64_le b (Int64.of_int (Array.length a));
      Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) a)
    inputs;
  write_atomic path (Buffer.contents b)

let read_buffers path n_expected =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  let u64 off = Int64.to_int (String.get_int64_le s off) in
  let n = u64 0 in
  if n <> n_expected then failwith "buffer count mismatch";
  let best_s = Int64.float_of_bits (String.get_int64_le s 8) in
  let off = ref 16 in
  let bufs =
    Array.init n (fun _ ->
        let e = u64 !off in
        off := !off + 8;
        let a =
          Array.init e (fun i ->
              Int64.float_of_bits (String.get_int64_le s (!off + (8 * i))))
        in
        off := !off + (8 * e);
        a)
  in
  (bufs, best_s)

let run_host t built ~in_file ~out_file ~reps =
  Toolchain.run_capture
    [| t.host; built.so_path; in_file; out_file; string_of_int reps |]

let execute ?(reps = 3) t built ~(inputs : float array array) =
  Obs.Counters.incr c_executions;
  Obs.Span.with_ "cpu.exec" @@ fun () ->
  let tag = uniq () in
  let in_file = Filename.concat t.dir ("io-" ^ tag ^ ".in") in
  let out_file = Filename.concat t.dir ("io-" ^ tag ^ ".out") in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove in_file with Sys_error _ -> ());
      try Sys.remove out_file with Sys_error _ -> ())
  @@ fun () ->
  write_buffers in_file inputs;
  let finish st =
    match st with
    | Some (Unix.WEXITED 0, _) -> (
      match read_buffers out_file (Array.length inputs) with
      | bufs, best -> Ok (bufs, best)
      | exception (Failure msg | Sys_error msg | Invalid_argument msg) ->
        Obs.Counters.incr c_exec_failures;
        Error (Exec_failed { status = "bad output file"; log = msg }))
    | Some (st, log) ->
      Obs.Counters.incr c_exec_failures;
      let status =
        match st with
        | Unix.WEXITED n -> Printf.sprintf "exit %d" n
        | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
        | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n
      in
      Error (Exec_failed { status; log })
    | None ->
      Obs.Counters.incr c_exec_failures;
      Error (Exec_failed { status = "spawn failure"; log = "could not run " ^ t.host })
  in
  match run_host t built ~in_file ~out_file ~reps with
  | Some (Unix.WEXITED 3, _) -> (
    (* corrupt or truncated artifact: drop it, recompile once from the
       kept source, retry *)
    Obs.Counters.incr c_exec_failures;
    (try Sys.remove built.so_path with Sys_error _ -> ());
    match
      compile_file t.tc ~flags:built.flags ~src:built.source_path ~out:built.so_path
        ~what:"kernel (corruption recovery)"
    with
    | Error e -> Error e
    | Ok () ->
      Obs.Counters.incr c_compiles;
      finish (run_host t built ~in_file ~out_file ~reps))
  | st -> finish st

(* ------------------------------------------------------------------ *)
(* convenience                                                          *)
(* ------------------------------------------------------------------ *)

(* Best CPU profile this host can really execute (compile AND run probes,
   so an AVX-512-accepting compiler on an AVX2 host still lands on AVX2). *)
let native_profile t =
  let candidates =
    [ Gpusim.Machine.avx2_8core; Gpusim.Machine.neon_4core; Gpusim.Machine.scalar_1core ]
  in
  match
    List.find_opt
      (fun (m : Gpusim.Machine.t) -> Toolchain.executes_isa t.tc m.Gpusim.Machine.isa)
      candidates
  with
  | Some m -> m
  | None -> Gpusim.Machine.scalar_1core
