(* Tests for the CPU backend: C emitter well-formedness, intrinsic-width
   legality, tile-annotation round-trip, golden C snapshots, the
   compile/execute runner (cache hits, corruption recovery, no-compiler
   degradation), and bit-for-bit executed differentials against the
   reference interpreter.

   Everything that needs a host C compiler is gated on [Runner.create]:
   on a toolchain-less host those tests skip, and the emit-only tests
   still run — mirroring how the backend itself degrades. *)

module Machine = Gpusim.Machine
module Cemit = Codegen_cpu.Cemit
module Runner = Codegen_cpu.Runner
module Toolchain = Codegen_cpu.Toolchain
module P = Harness.Pipeline

(* Any version reaches C through the one pipeline: a CPU profile picks
   the C backend.  Returns the lowering and its emitted source. *)
let run ?(version = P.Infl) ~machine k =
  let p = P.run ~machine version (P.operator k) in
  match p.P.backend with
  | P.Emitted source -> (p.P.compiled, source)
  | P.Simulated _ ->
    Alcotest.failf "%s simulated on %s" (P.name version) machine.Machine.name

let emit ?version ~machine k = snd (run ?version ~machine k)

let contains hay needle =
  try
    ignore (Str.search_forward (Str.regexp_string needle) hay 0);
    true
  with Not_found -> false

(* a fresh cache dir per test run so cache-hit expectations are exact *)
let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "akg-test-cpu-%d-%d" (Unix.getpid ()) !n)
    in
    d

let with_runner f =
  match Runner.create ~cache_dir:(fresh_dir ()) () with
  | Error Runner.No_compiler ->
    Printf.printf "  [skipped: no host C compiler]\n%!"
  | Error e -> Alcotest.failf "runner setup failed: %s" (Runner.error_message e)
  | Ok r -> f r

(* ------------------------------------------------------------------ *)
(* machine profiles                                                     *)
(* ------------------------------------------------------------------ *)

let test_machine_profiles () =
  List.iter
    (fun (m : Machine.t) ->
      Alcotest.(check bool) (m.Machine.name ^ " resolves") true
        (Machine.of_name m.Machine.name = Some m);
      Alcotest.(check bool) (m.Machine.name ^ " is cpu") true (Machine.is_cpu m))
    Machine.cpu_profiles;
  Alcotest.(check bool) "avx2 alias" true (Machine.of_name "AVX2" = Some Machine.avx2_8core);
  Alcotest.(check bool) "v100 not cpu" false (Machine.is_cpu Machine.v100);
  Alcotest.(check int) "avx2 lanes" 4 (Machine.simd_width Machine.avx2_8core);
  Alcotest.(check int) "scalar lanes" 1 (Machine.simd_width Machine.scalar_1core);
  (* the unknown-machine error must teach the full vocabulary *)
  let msg = Machine.unknown_message "tpu" in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("error lists " ^ name) true (contains msg name))
    Machine.names;
  Alcotest.(check bool) "unknown stays unknown" true (Machine.of_name "tpu" = None)

(* ------------------------------------------------------------------ *)
(* emitter well-formedness                                              *)
(* ------------------------------------------------------------------ *)

let balanced_braces s =
  let d = ref 0 in
  String.iter
    (fun c ->
      if c = '{' then incr d
      else if c = '}' then decr d)
    s;
  !d = 0

let test_emit_wellformed () =
  List.iter
    (fun (name, mk) ->
      let k = mk () in
      List.iter
        (fun (m : Machine.t) ->
          let src = emit ~machine:m k in
          let label what = Printf.sprintf "%s/%s %s" name m.Machine.name what in
          Alcotest.(check bool) (label "entry") true (contains src "void akg_kernel(double **bufs)");
          Alcotest.(check bool) (label "flat params") true (contains src "double *restrict");
          Alcotest.(check bool) (label "braces") true (balanced_braces src);
          Alcotest.(check bool) (label "no cuda") false
            (contains src "__global__" || contains src "blockIdx" || contains src "float4"))
        Machine.cpu_profiles;
      (* the machine, not the version, picks the backend *)
      List.iter
        (fun version ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s emits the entry" name (P.name version))
            true
            (contains (emit ~version ~machine:Machine.avx2_8core k) Cemit.entry_symbol))
        P.versions)
    Ops.Classics.all_small

let test_intrinsic_width_legality () =
  (* no profile may emit an intrinsic wider than its ISA: scalar emits no
     intrinsics at all, NEON stays on 128-bit q-registers, AVX2/AVX-512
     never spell 512-bit ops (the AST's vector widths cap at 4 lanes) *)
  List.iter
    (fun (name, mk) ->
      let k = mk () in
      let check m needles =
        let src = emit ~machine:m k in
        List.iter
          (fun needle ->
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s has no %s" name m.Machine.name needle)
              false (contains src needle))
          needles
      in
      check Machine.scalar_1core [ "_mm"; "vaddq"; "vld1q"; "float64x2_t" ];
      check Machine.neon_4core [ "_mm"; "__m128d"; "__m256d" ];
      check Machine.avx2_8core [ "_mm512"; "__m512d"; "vaddq" ];
      check Machine.avx512_16core [ "_mm512"; "__m512d" ])
    Ops.Classics.all_small

let test_vector_strip_uses_intrinsics () =
  (* fig2's influenced schedule vectorizes; the AVX2 emission must carry
     real vector loads/stores while the scalar profile lane-loops *)
  let k = Ops.Classics.fig2 ~n:8 () in
  let avx2 = emit ~machine:Machine.avx2_8core k in
  Alcotest.(check bool) "avx2 vector store" true (contains avx2 "_mm256_storeu_pd");
  let scalar = emit ~machine:Machine.scalar_1core k in
  Alcotest.(check bool) "scalar has no intrinsics" false (contains scalar "_mm");
  Alcotest.(check bool) "scalar still has the strip" true (contains scalar "vector strip");
  (* at full size the version table's vectorization threshold is met, and
     the run record must say so for at least one classic *)
  Alcotest.(check bool) "some classic op runs vectorized" true
    (List.exists
       (fun (name, mk) ->
         (fst (Harness.Eval.evaluate_cpu_op ~machine:Machine.avx2_8core ~name (mk ())))
           .Harness.Eval.cpu_vec)
       Ops.Classics.all)

let test_tile_annotation_roundtrip () =
  (* tile_sizes annotations deposited by the tiling client must surface as
     cache-blocked loops: every tile loop's step is its annotated size *)
  let k = Ops.Classics.stencil2d () in
  let c, src = run ~version:P.Tiled ~machine:Machine.scalar_1core k in
  Alcotest.(check bool) "tiling applied" true (Codegen.Tiling.applied c.Codegen.Compile.ast);
  let rec tile_steps = function
    | Codegen.Ast.Stmts l -> List.concat_map tile_steps l
    | Codegen.Ast.If (_, b) -> tile_steps b
    | Codegen.Ast.Exec _ | Codegen.Ast.VecExec _ -> []
    | Codegen.Ast.For l ->
      (match l.Codegen.Ast.kind with Codegen.Ast.Tile s -> [ s ] | _ -> [])
      @ tile_steps l.Codegen.Ast.body
  in
  let steps = tile_steps c.Codegen.Compile.ast in
  Alcotest.(check bool) "has tile loops" true (steps <> []);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "tile loop size %d in C" s)
        true
        (contains src (Printf.sprintf "/* tile loop (size %d) */" s)))
    steps

(* ------------------------------------------------------------------ *)
(* golden C snapshots                                                   *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Regenerate with:
     AKG_UPDATE_GOLDEN=test/golden dune exec test/test_cpu.exe *)
let check_golden_c name src =
  match Sys.getenv_opt "AKG_UPDATE_GOLDEN" with
  | Some dir ->
    let file = Filename.concat dir (name ^ ".c") in
    let oc = open_out file in
    output_string oc src;
    close_out oc;
    Printf.printf "wrote %s\n%!" file
  | None -> (
    (* dune runtest runs in _build/default/test where the goldens sit in
       ./golden; `dune exec test/test_cpu.exe` from the repo root sees
       them in test/golden *)
    let dir = if Sys.file_exists "golden" then "golden" else "test/golden" in
    let file = Filename.concat dir (name ^ ".c") in
    match read_file file with
    | exception Sys_error e -> Alcotest.failf "cannot read golden %s: %s" file e
    | expected ->
      if String.trim expected <> String.trim src then
        Alcotest.failf "emitted C for %s no longer matches %s:\n--- expected\n%s\n--- got\n%s"
          name file expected src)

let test_golden_fig2_avx2 () =
  let src = emit ~machine:Machine.avx2_8core (Ops.Classics.fig2 ~n:8 ()) in
  Alcotest.(check bool) "vectorized" true (contains src "_mm256");
  check_golden_c "fig2_cpu_avx2" src

let test_golden_stencil2d_tiled_scalar () =
  let src = emit ~version:P.Tiled ~machine:Machine.scalar_1core (Ops.Classics.stencil2d ()) in
  Alcotest.(check bool) "tiled" true (contains src "tile loop");
  Alcotest.(check bool) "scalar fallback" false (contains src "_mm");
  check_golden_c "stencil2d_cpu_tiled_scalar" src

(* ------------------------------------------------------------------ *)
(* runner: execution, differential, cache, recovery                     *)
(* ------------------------------------------------------------------ *)

let executed_matches_interp runner (m : Machine.t) (name, mk) =
  let k = mk () in
  let r, _src =
    Harness.Eval.evaluate_cpu_op ~machine:m ~runner ~name k
  in
  (match r.Harness.Eval.cpu_error with
   | Some e -> Alcotest.failf "%s/%s: %s" name m.Machine.name e
   | None -> ());
  Alcotest.(check bool) (name ^ " executed") true r.Harness.Eval.executed;
  Alcotest.(check (option bool)) (name ^ " bit-identical") (Some true) r.Harness.Eval.checked

let test_executed_differential_scalar () =
  with_runner @@ fun r ->
  List.iter (executed_matches_interp r Machine.scalar_1core) Ops.Classics.all_small

let test_executed_differential_native () =
  with_runner @@ fun r ->
  let m = Runner.native_profile r in
  Printf.printf "  [native profile: %s]\n%!" m.Machine.name;
  List.iter (executed_matches_interp r m) Ops.Classics.all_small

let test_compile_cache_hit () =
  with_runner @@ fun r ->
  let m = Machine.scalar_1core in
  let c, _ = run ~machine:m (Ops.Classics.fig2 ~n:8 ()) in
  (match Runner.build r ~machine:m c with
   | Error e -> Alcotest.failf "first build: %s" (Runner.error_message e)
   | Ok b1 ->
     Alcotest.(check bool) "first build is a miss" false b1.Runner.cache_hit;
     (match Runner.build r ~machine:m c with
      | Error e -> Alcotest.failf "second build: %s" (Runner.error_message e)
      | Ok b2 ->
        Alcotest.(check bool) "second build hits" true b2.Runner.cache_hit;
        Alcotest.(check string) "same artifact" b1.Runner.so_path b2.Runner.so_path))

let test_corruption_recovery () =
  with_runner @@ fun r ->
  let k = Ops.Classics.fig2 ~n:8 () in
  let m = Machine.scalar_1core in
  let c, _ = run ~machine:m k in
  match Runner.build r ~machine:m c with
  | Error e -> Alcotest.failf "build: %s" (Runner.error_message e)
  | Ok built ->
    (* truncate the artifact so dlopen fails; execute must recompile from
       the kept source and still produce bit-identical output *)
    let oc = open_out built.Runner.so_path in
    output_string oc "corrupt";
    close_out oc;
    match Harness.Pipeline.execute r built k with
    | Error e -> Alcotest.failf "execute after corruption: %s" (Runner.error_message e)
    | Ok (_, checked) ->
      Alcotest.(check bool) "recovered output bit-identical" true (checked = Some (Ok ()))

(* The interpreter check is most of a checked run's time; it must show in
   the span report under the operator's span, and only when it runs. *)
let test_check_span () =
  with_runner @@ fun runner ->
  let check_calls check =
    let _, capture =
      Obs.scoped (fun () ->
          Harness.Eval.evaluate_cpu_op ~machine:Machine.scalar_1core ~runner ~check
            ~name:"fig2" (Ops.Classics.fig2 ~n:8 ()))
    in
    List.fold_left
      (fun acc (path, calls, _) -> if path = "harness.cpu_op/cpu.check" then acc + calls else acc)
      0 (Obs.spans capture)
  in
  Alcotest.(check int) "one cpu.check when checked" 1 (check_calls true);
  Alcotest.(check int) "no cpu.check when unchecked" 0 (check_calls false)

let test_no_compiler_degrades () =
  (* force AKG_CC=none: creation reports the structured error and the
     harness records the degradation instead of raising *)
  let prior =
    match Toolchain.detect () with Some tc -> Toolchain.cc tc | None -> "none"
  in
  Unix.putenv "AKG_CC" "none";
  Fun.protect ~finally:(fun () -> Unix.putenv "AKG_CC" prior) @@ fun () ->
  (match Runner.create ~cache_dir:(fresh_dir ()) () with
   | Error Runner.No_compiler -> ()
   | Error e -> Alcotest.failf "expected No_compiler, got: %s" (Runner.error_message e)
   | Ok _ -> Alcotest.fail "expected No_compiler, got a runner");
  let r, src =
    Harness.Eval.evaluate_cpu_op ~machine:Machine.avx2_8core ~name:"fig2"
      (Ops.Classics.fig2 ~n:8 ())
  in
  Alcotest.(check bool) "emit still works" true (String.length src > 0);
  Alcotest.(check bool) "not executed" false r.Harness.Eval.executed;
  match r.Harness.Eval.cpu_error with
  | Some msg ->
    Alcotest.(check bool) "structured error" true (contains msg "emit-only")
  | None -> Alcotest.fail "expected a degradation error"

(* Pool worker domains probe the toolchain (Runner.build_source asks
   supports_isa, and kernel_flags asks supports_openmp): 4 domains probing
   a cold memo at once must each get the sequential answers. *)
let test_concurrent_probes () =
  match Toolchain.detect () with
  | None -> Printf.printf "  [skipped: no host C compiler]\n%!"
  | Some tc ->
    let answers () =
      Toolchain.supports_openmp tc
      :: List.map (Toolchain.supports_isa tc)
           Machine.[ Avx2; Avx512; Neon; Scalar_c ]
    in
    let sequential = answers () in
    Hashtbl.reset Toolchain.probe_memo;
    let domains = List.init 4 (fun _ -> Domain.spawn answers) in
    List.iter
      (fun d ->
        Alcotest.(check (list bool)) "same answers as one domain" sequential (Domain.join d))
      domains

(* One compile-and-run of an ISA's snippet answers both questions:
   supports_isa reads whether it compiled, executes_isa whether it ran. *)
let test_one_probe_per_isa () =
  match Toolchain.detect () with
  | None -> Printf.printf "  [skipped: no host C compiler]\n%!"
  | Some tc ->
    let isas = Machine.[ Avx2; Avx512; Neon; Scalar_c ] in
    Hashtbl.reset Toolchain.probe_memo;
    List.iter
      (fun isa ->
        let executes = Toolchain.executes_isa tc isa in
        let supports = Toolchain.supports_isa tc isa in
        Alcotest.(check bool)
          (Machine.isa_name isa ^ ": executes implies supports")
          true
          ((not executes) || supports))
      isas;
    Alcotest.(check int) "one memo entry per ISA" (List.length isas)
      (Hashtbl.length Toolchain.probe_memo)

let () =
  Alcotest.run "cpu"
    [ ( "machine",
        [ Alcotest.test_case "cpu profiles + names" `Quick test_machine_profiles ] );
      ( "emitter",
        [ Alcotest.test_case "well-formed for all profiles" `Quick test_emit_wellformed;
          Alcotest.test_case "intrinsic width legality" `Quick test_intrinsic_width_legality;
          Alcotest.test_case "vector strips use intrinsics" `Quick
            test_vector_strip_uses_intrinsics;
          Alcotest.test_case "tile annotation round-trip" `Quick
            test_tile_annotation_roundtrip
        ] );
      ( "golden-c",
        [ Alcotest.test_case "fig2 avx2" `Quick test_golden_fig2_avx2;
          Alcotest.test_case "stencil2d tiled scalar" `Quick
            test_golden_stencil2d_tiled_scalar
        ] );
      ( "runner",
        [ Alcotest.test_case "executed differential (scalar)" `Quick
            test_executed_differential_scalar;
          Alcotest.test_case "executed differential (native)" `Quick
            test_executed_differential_native;
          Alcotest.test_case "compile cache hit" `Quick test_compile_cache_hit;
          Alcotest.test_case "corruption recovery" `Quick test_corruption_recovery;
          Alcotest.test_case "interpreter check span" `Quick test_check_span;
          Alcotest.test_case "no-compiler degradation" `Quick test_no_compiler_degrades;
          Alcotest.test_case "concurrent toolchain probes" `Quick test_concurrent_probes;
          Alcotest.test_case "one probe per ISA" `Quick test_one_probe_per_isa
        ] )
    ]
