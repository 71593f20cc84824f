module Rng = Rng
module Case = Case
module Generate = Generate
module Check = Check
module Shrink = Shrink

let c_cases = Obs.Counters.create ~doc:"fuzz: kernels generated and checked" "fuzz.cases"
let c_failures = Obs.Counters.create ~doc:"fuzz: differential failures found" "fuzz.failures"

let c_shrink_steps =
  Obs.Counters.create ~doc:"fuzz: accepted counterexample shrink steps" "fuzz.shrink_steps"

type failure_report = {
  index : int;
  case : Case.t;
  shrunk : Case.t;
  shrink_steps : int;
  failure : Check.failure;
  file : string option;
}

type report = { seed : int; count : int; failures : failure_report list }

(* ------------------------------------------------------------------ *)
(* replay files                                                         *)
(* ------------------------------------------------------------------ *)

let schema_name = "akg-repro-fuzz-case"
let schema_version = 1

module J = Obs.Json

let save_case ~file ~seed ~index ~failure:(f : Check.failure) case =
  let doc =
    J.Assoc
      [ ("schema", J.String schema_name);
        ("version", J.Int schema_version);
        ("seed", J.Int seed);
        ("index", J.Int index);
        ("failure",
         J.Assoc
           [ ("compiler", J.String (Harness.Pipeline.name f.Check.version));
             ("stage", J.String (Check.stage_name f.Check.stage));
             ("message", J.String f.Check.message)
           ]);
        ("case", Case.to_json case)
      ]
  in
  J.to_file file doc

let load_case file =
  Result.bind (J.of_file file) @@ fun j ->
  match J.member "schema" j with
  | Some (J.String s) when s = schema_name -> (
    let failure =
      match J.member "failure" j with
      | Some fj -> (
        let str k =
          match J.member k fj with Some (J.String s) -> Some s | _ -> None
        in
        match (str "compiler", str "stage", str "message") with
        | Some v, Some s, Some m -> (
          (* a "cpu" record resolves to infl; the machine plays no part *)
          match
            ( Harness.Pipeline.resolve v ~machine:Gpusim.Machine.v100,
              Check.stage_of_name s )
          with
          | Some (version, _), Some stage ->
            Ok { Check.version; stage; message = m }
          | _ -> Error "unknown compiler version or stage in failure record")
        | _ -> Error "incomplete failure record")
      | None -> Error "replay file lacks a failure record"
    in
    match failure with
    | Error e -> Error (Printf.sprintf "%s: %s" file e)
    | Ok f -> (
      match J.member "case" j with
      | None -> Error (Printf.sprintf "%s: replay file lacks a case" file)
      | Some cj -> (
        match Case.of_json cj with
        | Error e -> Error (Printf.sprintf "%s: %s" file e)
        | Ok case -> Ok (case, f))))
  | _ -> Error (Printf.sprintf "%s: not an %s document" file schema_name)

let replay ?cpu_exec file =
  match load_case file with
  | Error e -> Error e
  | Ok (case, _) -> Ok (case, Check.run_case ?cpu_exec case)

(* ------------------------------------------------------------------ *)
(* the fuzz loop                                                        *)
(* ------------------------------------------------------------------ *)

let case_stats case =
  let stmts = List.length case.Case.stmts in
  let rank =
    List.fold_left (fun acc s -> max acc (List.length s.Case.iters)) 0 case.Case.stmts
  in
  (stmts, rank)

let run ?out_dir ?mutate ?cpu_exec ?(progress = fun _ -> ()) ?(jobs = 1) ~seed ~count () =
  (* Phase 1 — generate + differentially check, sharded across the pool.
     A case is a pure function of (seed, index) and the interpreter inputs
     are derived from a fixed seed, so the set of failing indices is
     independent of [jobs]; the pool's ordered merge keeps counters and
     trace events identical too. *)
  let check_one index =
    Obs.Counters.incr c_cases;
    let case = Generate.generate ~seed ~index () in
    Obs.Trace.emitf "fuzz.case" (fun () ->
        let stmts, rank = case_stats case in
        [ ("seed", J.Int seed); ("index", J.Int index); ("stmts", J.Int stmts);
          ("rank", J.Int rank)
        ]);
    (index, case, Check.run_case ?mutate ?cpu_exec case)
  in
  let checked = Service.Pool.map ~jobs check_one (List.init count Fun.id) in
  (* Phase 2 — shrink failures sequentially, in index order: shrinking is
     a greedy search whose every probe depends on the previous accept, so
     parallelism would change the minimized kernels. *)
  let failures =
    List.filter_map
      (fun (index, case, result) ->
        match result with
        | Ok () -> None
        | Error failure ->
          Obs.Counters.incr c_failures;
          (* shrink towards the same (version, stage) failure so the
             minimized kernel reproduces the original defect, not a new one *)
          let still_fails c =
            match Check.run_case ?mutate ?cpu_exec c with
            | Error f ->
              f.Check.version = failure.Check.version
              && f.Check.stage = failure.Check.stage
            | Ok () -> false
          in
          let shrunk, shrink_steps = Shrink.minimize ~still_fails case in
          Obs.Counters.add c_shrink_steps shrink_steps;
          let file =
            Option.map
              (fun dir ->
                Service.Cache.mkdir_p dir;
                let f =
                  Filename.concat dir (Printf.sprintf "fuzz_%d_%d.json" seed index)
                in
                save_case ~file:f ~seed ~index ~failure shrunk;
                f)
              out_dir
          in
          Obs.Trace.emitf "fuzz.failure" (fun () ->
              let stmts, rank = case_stats shrunk in
              [ ("seed", J.Int seed); ("index", J.Int index);
                ("compiler", J.String (Harness.Pipeline.name failure.Check.version));
                ("stage", J.String (Check.stage_name failure.Check.stage));
                ("message", J.String failure.Check.message);
                ("shrink_steps", J.Int shrink_steps);
                ("shrunk_stmts", J.Int stmts); ("shrunk_rank", J.Int rank)
              ]);
          let r = { index; case; shrunk; shrink_steps; failure; file } in
          progress r;
          Some r)
      checked
  in
  { seed; count; failures }
