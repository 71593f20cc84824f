let schema_name = "akg-repro-fingerprint"
let version = 1

type section = (string * (string * Json.t) list) list

type t = {
  kinds : (string * int) list;
  ops : section;
  schedules : section;
  scenarios : section;
}

(* ------------------------------------------------------------------ *)
(* folding a trace into a fingerprint                                   *)
(* ------------------------------------------------------------------ *)

(* Accumulates entries in emission order, giving repeated keys an
   occurrence suffix: the second scheduler.done for kernel k becomes
   "k@1".  Runs of the same operator thus stay distinguishable and the
   fingerprint stays a flat key-value map. *)
let uniquify entries =
  let seen : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.map
    (fun (key, fields) ->
      let n = Option.value ~default:0 (Hashtbl.find_opt seen key) in
      Hashtbl.replace seen key (n + 1);
      ((if n = 0 then key else Printf.sprintf "%s@%d" key n), fields))
    entries

let string_field name fields =
  match List.assoc_opt name fields with
  | Some (Json.String s) -> Some s
  | Some v -> Some (Json.to_string v)
  | None -> None

let section_of ~kind ~key_of events =
  List.filter_map
    (fun (e : Tracefile.event) ->
      if e.kind <> kind then None
      else
        let key = key_of e.Tracefile.fields in
        let keys_used =
          match kind with
          | "vectorizer.scenario" -> [ "stmt"; "alternative" ]
          | "harness.op" -> [ "op" ]
          | _ -> [ "kernel" ]
        in
        Some
          (key, List.filter (fun (k, _) -> not (List.mem k keys_used)) e.Tracefile.fields))
    events
  |> uniquify
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let of_trace tf =
  let tf = Tracefile.normalize tf in
  let events = tf.Tracefile.events in
  let kinds =
    let tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (e : Tracefile.event) ->
        Hashtbl.replace tbl e.kind
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl e.kind)))
      events;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let with_default d = function Some s -> s | None -> d in
  { kinds;
    ops =
      section_of ~kind:"harness.op"
        ~key_of:(fun f -> with_default "?" (string_field "op" f))
        events;
    schedules =
      section_of ~kind:"scheduler.done"
        ~key_of:(fun f -> with_default "?" (string_field "kernel" f))
        events;
    scenarios =
      section_of ~kind:"vectorizer.scenario"
        ~key_of:(fun f ->
          Printf.sprintf "%s#%s"
            (with_default "?" (string_field "stmt" f))
            (with_default "?" (string_field "alternative" f)))
        events
  }

(* ------------------------------------------------------------------ *)
(* JSON round-trip (golden files)                                       *)
(* ------------------------------------------------------------------ *)

let section_to_json s =
  Json.Assoc (List.map (fun (k, fields) -> (k, Json.Assoc fields)) s)

let to_json t =
  Json.Assoc
    [ ("schema", Json.String schema_name);
      ("version", Json.Int version);
      ("kinds", Json.Assoc (List.map (fun (k, n) -> (k, Json.Int n)) t.kinds));
      ("ops", section_to_json t.ops);
      ("schedules", section_to_json t.schedules);
      ("scenarios", section_to_json t.scenarios)
    ]

let section_of_json name j =
  match Json.member name j with
  | Some (Json.Assoc l) ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (k, Json.Assoc fields) :: rest -> go ((k, fields) :: acc) rest
      | (k, _) :: _ -> Error (Printf.sprintf "%s.%s: not an object" name k)
    in
    go [] l
  | _ -> Error (Printf.sprintf "missing %S section" name)

let of_json j =
  (match Json.member "schema" j with
   | Some (Json.String s) when s = schema_name -> Ok ()
   | Some (Json.String s) ->
     Error (Printf.sprintf "schema mismatch: %S is not %S" s schema_name)
   | _ -> Error "missing \"schema\" tag")
  |> function
  | Error _ as e -> e
  | Ok () -> (
    (match Json.member "version" j with
     | Some (Json.Int v) when v = version -> Ok ()
     | Some (Json.Int v) -> Error (Printf.sprintf "unsupported fingerprint version %d" v)
     | _ -> Error "missing \"version\" field")
    |> function
    | Error _ as e -> e
    | Ok () -> (
      let kinds =
        match Json.member "kinds" j with
        | Some (Json.Assoc l) ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | (k, Json.Int n) :: rest -> go ((k, n) :: acc) rest
            | (k, _) :: _ -> Error (Printf.sprintf "kinds.%s: not an integer" k)
          in
          go [] l
        | _ -> Error "missing \"kinds\" section"
      in
      match kinds with
      | Error _ as e -> e
      | Ok kinds -> (
        match
          (section_of_json "ops" j, section_of_json "schedules" j,
           section_of_json "scenarios" j)
        with
        | Ok ops, Ok schedules, Ok scenarios -> Ok { kinds; ops; schedules; scenarios }
        | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e)))

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | contents -> (
    match Json.of_string contents with
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
    | Ok j -> (
      match of_json j with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok t -> Ok t))

let write_file path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let j = to_json t in
      (* one section per line so golden diffs stay readable *)
      match j with
      | Json.Assoc l ->
        output_string oc "{";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then output_string oc ",";
            output_string oc "\n ";
            output_string oc (Json.to_string (Json.String k));
            output_string oc ":";
            output_string oc (Json.to_string v))
          l;
        output_string oc "\n}\n"
      | j -> output_string oc (Json.to_string j))

(* ------------------------------------------------------------------ *)
(* structural diff                                                      *)
(* ------------------------------------------------------------------ *)

type change = {
  section : string;
  key : string;
  field : string;
  old_v : string option;
  new_v : string option;
}

let diff_kinds a b =
  let keys = List.sort_uniq String.compare (List.map fst a @ List.map fst b) in
  List.filter_map
    (fun k ->
      let get l = Option.value ~default:0 (List.assoc_opt k l) in
      let va = get a and vb = get b in
      if va = vb then None
      else
        Some
          { section = "kinds"; key = k; field = "";
            old_v = Some (string_of_int va); new_v = Some (string_of_int vb)
          })
    keys

let diff_section name a b =
  let keys = List.sort_uniq String.compare (List.map fst a @ List.map fst b) in
  List.concat_map
    (fun k ->
      match (List.assoc_opt k a, List.assoc_opt k b) with
      | None, None -> []
      | Some _, None ->
        [ { section = name; key = k; field = ""; old_v = Some "present"; new_v = None } ]
      | None, Some _ ->
        [ { section = name; key = k; field = ""; old_v = None; new_v = Some "present" } ]
      | Some fa, Some fb ->
        let fields =
          List.sort_uniq String.compare (List.map fst fa @ List.map fst fb)
        in
        List.filter_map
          (fun f ->
            let va = List.assoc_opt f fa and vb = List.assoc_opt f fb in
            let eq =
              match (va, vb) with
              | Some x, Some y -> Json.equal x y
              | None, None -> true
              | _ -> false
            in
            if eq then None
            else
              Some
                { section = name; key = k; field = f;
                  old_v = Option.map Json.to_string va;
                  new_v = Option.map Json.to_string vb
                })
          fields)
    keys

let diff a b =
  diff_kinds a.kinds b.kinds
  @ diff_section "ops" a.ops b.ops
  @ diff_section "schedules" a.schedules b.schedules
  @ diff_section "scenarios" a.scenarios b.scenarios

let equal a b = diff a b = []

let pp_change fmt c =
  let v = function Some s -> s | None -> "absent" in
  if c.field = "" && c.section <> "kinds" then
    Format.fprintf fmt "%s[%s]: %s -> %s" c.section c.key (v c.old_v) (v c.new_v)
  else if c.section = "kinds" then
    Format.fprintf fmt "kinds: %s %s -> %s" c.key (v c.old_v) (v c.new_v)
  else
    Format.fprintf fmt "%s[%s].%s: %s -> %s" c.section c.key c.field (v c.old_v)
      (v c.new_v)

let pp_changes fmt changes =
  List.iter (fun c -> Format.fprintf fmt "  %a@." pp_change c) changes

(* ------------------------------------------------------------------ *)
(* human drill-down report                                              *)
(* ------------------------------------------------------------------ *)

let int_field name fields =
  match List.assoc_opt name fields with
  | Some (Json.Int i) -> Some i
  | _ -> None

let float_field name fields =
  match List.assoc_opt name fields with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let bool_field name fields =
  match List.assoc_opt name fields with Some (Json.Bool b) -> Some b | _ -> None

(* One row per scheduler run, assembled by walking the trace in order:
   scheduler.start opens a run for its kernel, scheduler.solve events
   accumulate into the open run of their kernel, scheduler.done closes
   it (carrying the final stats). *)
type sched_run = {
  sr_kernel : string;
  mutable sr_solves : int;
  mutable sr_screened : int;
  mutable sr_injected : int;
  mutable sr_solve_us : float;
  mutable sr_done : (string * Json.t) list;
}

let sched_runs (tf : Tracefile.t) =
  let open_runs : (string, sched_run) Hashtbl.t = Hashtbl.create 8 in
  let closed = ref [] in
  List.iter
    (fun (e : Tracefile.event) ->
      let kernel () =
        Option.value ~default:"?" (string_field "kernel" e.Tracefile.fields)
      in
      match e.Tracefile.kind with
      | "scheduler.start" ->
        Hashtbl.replace open_runs (kernel ())
          { sr_kernel = kernel (); sr_solves = 0; sr_screened = 0; sr_injected = 0;
            sr_solve_us = 0.0; sr_done = []
          }
      | "scheduler.solve" -> (
        match Hashtbl.find_opt open_runs (kernel ()) with
        | None -> ()
        | Some r ->
          r.sr_solves <- r.sr_solves + 1;
          r.sr_injected <-
            r.sr_injected + Option.value ~default:0 (int_field "injected" e.fields);
          r.sr_solve_us <-
            r.sr_solve_us +. Option.value ~default:0.0 (float_field "dur_us" e.fields))
      | "scheduler.screen" -> (
        match Hashtbl.find_opt open_runs (kernel ()) with
        | None -> ()
        | Some r -> r.sr_screened <- r.sr_screened + 1)
      | "scheduler.done" -> (
        match Hashtbl.find_opt open_runs (kernel ()) with
        | None -> ()
        | Some r ->
          r.sr_done <- e.fields;
          Hashtbl.remove open_runs (kernel ());
          closed := r :: !closed)
      | _ -> ())
    tf.Tracefile.events;
  List.rev !closed

let report fmt (tf : Tracefile.t) =
  Format.fprintf fmt "trace: %d events (format version %d)@."
    (List.length tf.Tracefile.events)
    tf.Tracefile.version;
  let fp = of_trace tf in
  Format.fprintf fmt "@.event kinds:@.";
  let w =
    List.fold_left (fun acc (k, _) -> max acc (String.length k)) 8 fp.kinds
  in
  List.iter (fun (k, n) -> Format.fprintf fmt "  %-*s %8d@." w k n) fp.kinds;
  (match sched_runs tf with
   | [] -> ()
   | runs ->
     Format.fprintf fmt "@.scheduler runs:@.";
     Format.fprintf fmt "  %-28s %7s %8s %8s %6s %6s %6s %5s %5s %9s@." "kernel" "solves"
       "screened" "injected" "sibl" "backtr" "scc" "bands" "aband" "solve(ms)";
     List.iter
       (fun r ->
         let d name = Option.value ~default:0 (int_field name r.sr_done) in
         Format.fprintf fmt "  %-28s %7d %8d %8d %6d %6d %6d %5d %5b %9.2f@." r.sr_kernel
           r.sr_solves r.sr_screened r.sr_injected (d "sibling_moves")
           (d "ancestor_backtracks") (d "scc_separations") (d "band_ends")
           (Option.value ~default:false (bool_field "abandoned" r.sr_done))
           (r.sr_solve_us /. 1e3))
       runs);
  (match
     List.filter (fun (e : Tracefile.event) -> e.kind = "vectorizer.scenario")
       tf.Tracefile.events
   with
   | [] -> ()
   | scenarios ->
     Format.fprintf fmt "@.vectorization scenarios:@.";
     Format.fprintf fmt "  %-16s %4s %6s %-12s %-20s %10s@." "stmt" "alt" "width"
       "vector_iter" "dims" "score";
     List.iter
       (fun (e : Tracefile.event) ->
         let f = e.Tracefile.fields in
         let dims =
           match List.assoc_opt "dims" f with
           | Some (Json.List l) ->
             String.concat ","
               (List.map (function Json.String s -> s | v -> Json.to_string v) l)
           | _ -> "?"
         in
         Format.fprintf fmt "  %-16s %4d %6d %-12s %-20s %10.2f@."
           (Option.value ~default:"?" (string_field "stmt" f))
           (Option.value ~default:0 (int_field "alternative" f))
           (Option.value ~default:1 (int_field "vector_width" f))
           (match List.assoc_opt "vector_iter" f with
            | Some (Json.String s) -> s
            | _ -> "-")
           dims
           (Option.value ~default:0.0 (float_field "score" f)))
       scenarios);
  (match
     List.filter (fun (e : Tracefile.event) -> e.kind = "harness.op")
       tf.Tracefile.events
   with
   | [] -> ()
   | ops ->
     Format.fprintf fmt "@.operators:@.";
     Format.fprintf fmt "  %-20s %5s %4s %10s %11s %6s %6s %9s %8s %9s %8s@." "op"
       "infl" "vec" "isl_solves" "infl_solves" "sibl" "backtr" "sched(ms)" "tree(ms)"
       "lower(ms)" "sim(ms)";
     List.iter
       (fun (e : Tracefile.event) ->
         let f = e.Tracefile.fields in
         let i name = Option.value ~default:0 (int_field name f) in
         let b name = Option.value ~default:false (bool_field name f) in
         let ms name = Option.value ~default:0.0 (float_field name f) in
         Format.fprintf fmt
           "  %-20s %5b %4b %10d %11d %6d %6d %9.2f %8.2f %9.2f %8.2f@."
           (Option.value ~default:"?" (string_field "op" f))
           (b "influenced") (b "vec") (i "isl_ilp_solves") (i "infl_ilp_solves")
           (i "sibling_moves") (i "ancestor_backtracks") (ms "sched_ms") (ms "tree_ms")
           (ms "lower_ms") (ms "sim_ms"))
       ops)
