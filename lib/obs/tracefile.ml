type event = {
  seq : int;
  ts_us : float option;
  kind : string;
  fields : (string * Json.t) list;
}

type t = { version : int; events : event list }

(* ------------------------------------------------------------------ *)
(* loading                                                              *)
(* ------------------------------------------------------------------ *)

let event_of_json idx j =
  match j with
  | Json.Assoc l ->
    let kind =
      match List.assoc_opt "kind" l with
      | Some (Json.String k) -> Ok k
      | _ -> Error (Printf.sprintf "event %d: missing \"kind\"" idx)
    in
    (match kind with
     | Error _ as e -> e
     | Ok kind ->
       let seq =
         match List.assoc_opt "seq" l with Some (Json.Int s) -> s | _ -> idx
       in
       let ts_us =
         match List.assoc_opt "ts_us" l with
         | Some (Json.Float f) -> Some f
         | Some (Json.Int i) -> Some (float_of_int i)
         | _ -> None
       in
       let fields =
         List.filter (fun (k, _) -> k <> "seq" && k <> "ts_us" && k <> "kind") l
       in
       Ok { seq; ts_us; kind; fields })
  | _ -> Error (Printf.sprintf "event %d: not an object" idx)

let of_json j =
  match j with
  | Json.Assoc _ -> (
    (match Json.member "schema" j with
     | Some (Json.String s) when s = Trace.schema_name -> Ok ()
     | Some (Json.String s) ->
       Error (Printf.sprintf "schema mismatch: %S is not %S" s Trace.schema_name)
     | _ -> Error "missing \"schema\" tag")
    |> function
    | Error _ as e -> e
    | Ok () -> (
      (match Json.member "version" j with
       | Some (Json.Int v) when v >= 1 && v <= Trace.version -> Ok v
       | Some (Json.Int v) ->
         Error
           (Printf.sprintf "unsupported trace version %d (this build reads 1..%d)" v
              Trace.version)
       | _ -> Error "missing \"version\" field")
      |> function
      | Error _ as e -> e
      | Ok version -> (
        match Json.member "events" j with
        | Some (Json.List evs) ->
          let rec go i acc = function
            | [] -> Ok { version; events = List.rev acc }
            | e :: rest -> (
              match event_of_json i e with
              | Ok ev -> go (i + 1) (ev :: acc) rest
              | Error _ as err -> err)
          in
          go 0 [] evs
        | _ -> Error "missing \"events\" array")))
  | _ -> Error "trace is not a JSON object"

let load path =
  Result.bind (Json.of_file path) (fun j ->
      Result.map_error (Printf.sprintf "%s: %s" path) (of_json j))

let of_live () =
  { version = Trace.version;
    events =
      List.map
        (fun (e : Trace.event) ->
          { seq = e.Trace.seq;
            ts_us = Some e.Trace.ts_us;
            kind = e.Trace.kind;
            fields = e.Trace.fields
          })
        (Trace.events ())
  }

(* ------------------------------------------------------------------ *)
(* normalization                                                        *)
(* ------------------------------------------------------------------ *)

let timing_field name =
  name = "dur_us" || name = "time_us" || name = "ts_us"
  || (String.length name > 3 && String.sub name (String.length name - 3) 3 = "_ms")

let rec strip_timing = function
  | Json.Assoc l ->
    Json.Assoc
      (List.filter_map
         (fun (k, v) -> if timing_field k then None else Some (k, strip_timing v))
         l)
  | Json.List l -> Json.List (List.map strip_timing l)
  | v -> v

let normalize_event e =
  { e with
    ts_us = None;
    fields =
      List.filter_map
        (fun (k, v) -> if timing_field k then None else Some (k, strip_timing v))
        e.fields
  }

let normalize t = { t with events = List.map normalize_event t.events }

(* ------------------------------------------------------------------ *)
(* timing totals (the fields normalization drops)                       *)
(* ------------------------------------------------------------------ *)

let timing_totals t =
  let tbl : (string, float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
      List.iter
        (fun (k, v) ->
          if timing_field k && k <> "ts_us" then
            let x =
              match v with
              | Json.Float f -> f
              | Json.Int i -> float_of_int i
              | _ -> 0.0
            in
            let key = e.kind ^ "." ^ k in
            Hashtbl.replace tbl key
              (x +. Option.value ~default:0.0 (Hashtbl.find_opt tbl key)))
        e.fields)
    t.events;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
