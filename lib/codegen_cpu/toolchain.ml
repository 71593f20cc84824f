(* Host C compiler discovery.  The backend must degrade to emit-only when
   no toolchain is present, so everything here is total: detection returns
   an option, probes return booleans, and nothing raises for a missing or
   broken compiler. *)

type t = {
  cc : string;  (* resolved executable path *)
  version : string;  (* first line of [cc --version], "" if unknowable *)
  digest : string;  (* identity for content-addressed artifacts *)
}

let cc t = t.cc
let version t = t.version
let digest t = t.digest

(* run a command with stdout+stderr captured, never raising *)
let run_capture argv =
  try
    let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
    let r_out, w_out = Unix.pipe ~cloexec:false () in
    let pid =
      Unix.create_process argv.(0) argv null w_out w_out
    in
    Unix.close null;
    Unix.close w_out;
    let ic = Unix.in_channel_of_descr r_out in
    let out = In_channel.input_all ic in
    close_in ic;
    let _, status = Unix.waitpid [] pid in
    Some (status, out)
  with Unix.Unix_error _ | Sys_error _ -> None

let is_executable path =
  try
    let st = Unix.stat path in
    st.Unix.st_kind = Unix.S_REG
    &&
    (Unix.access path [ Unix.X_OK ];
     true)
  with Unix.Unix_error _ -> false

let search_path name =
  if String.contains name '/' then if is_executable name then Some name else None
  else
    let path = try Sys.getenv "PATH" with Not_found -> "" in
    let dirs = String.split_on_char ':' path in
    List.find_map
      (fun d ->
        if d = "" then None
        else
          let full = Filename.concat d name in
          if is_executable full then Some full else None)
      dirs

let probe_version cc =
  match run_capture [| cc; "--version" |] with
  | Some (Unix.WEXITED 0, out) -> (
    match String.split_on_char '\n' out with
    | first :: _ -> Some (String.trim first)
    | [] -> Some "")
  | _ -> None

let make cc =
  match probe_version cc with
  | None -> None
  | Some version ->
    Some { cc; version; digest = Digest.to_hex (Digest.string (cc ^ "\x00" ^ version)) }

(* AKG_CC overrides discovery: a path selects that compiler, and
   "none"/"off"/"" disables the backend (the no-toolchain CI leg). *)
let detect_uncached () =
  match Sys.getenv_opt "AKG_CC" with
  | Some ("" | "none" | "off" | "disabled") -> None
  | Some cc -> Option.bind (search_path cc) make
  | None ->
    List.find_map
      (fun name -> Option.bind (search_path name) make)
      [ "cc"; "gcc"; "clang" ]

let cache : (string option * t option) option ref = ref None

let detect () =
  let env = Sys.getenv_opt "AKG_CC" in
  match !cache with
  | Some (e, tc) when e = env -> tc
  | _ ->
    let tc = detect_uncached () in
    cache := Some (env, tc);
    tc

(* One compile-and-run of a snippet with the given flags answers both
   toolchain questions: did it compile, and did the result run.  Memoized
   as (compiled, ran) per (compiler, flags, snippet).  Pool worker domains
   probe too (through [Runner.build_source]), so the memo is guarded by a
   mutex, held across the probe so each key runs once. *)
let probe_memo : (string, bool * bool) Hashtbl.t = Hashtbl.create 8
let probe_lock = Mutex.create ()

let with_temp suffix f =
  let path = Filename.temp_file "akg_probe" suffix in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let probe t ~flags snippet =
  let key = String.concat "|" [ t.digest; String.concat " " flags; Digest.string snippet ] in
  Mutex.protect probe_lock @@ fun () ->
  match Hashtbl.find_opt probe_memo key with
  | Some r -> r
  | None ->
    let ok argv = match run_capture argv with Some (Unix.WEXITED 0, _) -> true | _ -> false in
    let r =
      try
        with_temp ".c" @@ fun src ->
        with_temp ".exe" @@ fun exe ->
        Out_channel.with_open_text src (fun oc -> output_string oc snippet);
        let compiled = ok (Array.of_list ((t.cc :: flags) @ [ src; "-o"; exe ])) in
        (compiled, compiled && ok [| exe |])
      with Sys_error _ -> (false, false)
    in
    Hashtbl.add probe_memo key r;
    r

let isa_flags (isa : Gpusim.Machine.isa) =
  match isa with
  | Gpusim.Machine.Avx2 -> [ "-mavx2" ]
  | Gpusim.Machine.Avx512 -> [ "-mavx512f" ]
  | Gpusim.Machine.Neon | Gpusim.Machine.Scalar_c | Gpusim.Machine.Ptx -> []

let isa_snippet (isa : Gpusim.Machine.isa) =
  match isa with
  | Gpusim.Machine.Avx2 | Gpusim.Machine.Avx512 ->
    "#include <immintrin.h>\n\
     int main(void) {\n\
    \  volatile double x[4] = { 1.0, 2.0, 3.0, 4.0 };\n\
    \  __m256d a = _mm256_loadu_pd((const double *)x);\n\
    \  a = _mm256_add_pd(a, a);\n\
    \  double y[4];\n\
    \  _mm256_storeu_pd(y, a);\n\
    \  return y[0] == 2.0 ? 0 : 1;\n\
     }\n"
  | Gpusim.Machine.Neon ->
    "#include <arm_neon.h>\n\
     int main(void) {\n\
    \  volatile double x[2] = { 1.0, 2.0 };\n\
    \  float64x2_t a = vld1q_f64((const double *)x);\n\
    \  a = vaddq_f64(a, a);\n\
    \  double y[2];\n\
    \  vst1q_f64(y, a);\n\
    \  return y[0] == 2.0 ? 0 : 1;\n\
     }\n"
  | Gpusim.Machine.Scalar_c | Gpusim.Machine.Ptx -> "int main(void) { return 0; }\n"

let isa_probe t isa = probe t ~flags:("-O2" :: isa_flags isa) (isa_snippet isa)

let supports_isa t isa = fst (isa_probe t isa)

(* catches ISAs the compiler accepts but the host CPU cannot execute
   (e.g. -mavx512f on an AVX2-only machine) *)
let executes_isa t isa = snd (isa_probe t isa)

let supports_openmp t =
  fst
    (probe t ~flags:[ "-O2"; "-fopenmp" ]
       "int main(void) {\n\
       \  int s = 0;\n\
        #pragma omp parallel for\n\
       \  for (int i = 0; i < 2; ++i) s += 0;\n\
       \  return s;\n\
        }\n")

(* flags for compiling an emitted kernel for [machine] to a shared object *)
let kernel_flags t (machine : Gpusim.Machine.t) =
  [ "-O2"; "-fPIC"; "-shared" ] @ isa_flags machine.Gpusim.Machine.isa
  @ (if machine.Gpusim.Machine.sm_count > 1 && supports_openmp t then [ "-fopenmp" ] else [])
  @ [ "-lm" ]
