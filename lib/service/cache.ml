let schema_name = "akg-repro-cache-entry"

let c_hits =
  Obs.Counters.create "service.cache_hits" ~doc:"compile results answered from disk"

let c_misses =
  Obs.Counters.create "service.cache_misses" ~doc:"cache lookups that missed"

let c_stores = Obs.Counters.create "service.cache_stores" ~doc:"cache entries written"

let c_corrupt =
  Obs.Counters.create "service.cache_corrupt"
    ~doc:"unreadable/mismatched cache entries dropped (recomputed, not fatal)"

let c_evictions =
  Obs.Counters.create "service.cache_evictions" ~doc:"entries evicted by the size cap"

let c_scans =
  Obs.Counters.create "service.cache_scans"
    ~doc:"cache directory scans: one per handle opened, then one per store past the cap"

(* [bytes] is this handle's running total of entry bytes: set by the scan
   in [open_], moved by every store, eviction and dropped entry, and reset
   to the directory's true total by each over-cap rescan.  Atomic because
   pool domains may share one handle. *)
type t = { dir : string; max_bytes : int; bytes : int Atomic.t }

let default_max_bytes = 256 * 1024 * 1024

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let dir t = t.dir

let entry_path t key = Filename.concat t.dir (Key.digest key ^ ".json")

(* One exact-size buffer, filled by [read] on the raw descriptor: no
   channel buffer and no seeks.  A file that shrinks between the [fstat]
   and the reads comes back short, and so fails its check. *)
let read_all path =
  let fd = Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let size = (Unix.fstat fd).Unix.st_size in
      let b = Bytes.create size in
      let rec fill off =
        if off = size then off
        else match Unix.read fd b off (size - off) with 0 -> off | k -> fill (off + k)
      in
      let got = fill 0 in
      if got = size then Bytes.unsafe_to_string b else Bytes.sub_string b 0 got)

let remove path = try Sys.remove path with Sys_error _ -> ()

let entries_by_age t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter_map (fun name ->
           if Filename.check_suffix name ".json" then
             let path = Filename.concat t.dir name in
             match Unix.stat path with
             | exception Unix.Unix_error _ -> None
             | st when st.Unix.st_kind = Unix.S_REG ->
               Some (path, st.Unix.st_mtime, st.Unix.st_size)
             | _ -> None
           else None)
    (* oldest first; ties broken by name so eviction order is total *)
    |> List.sort (fun (pa, ta, _) (pb, tb, _) ->
           match Float.compare ta tb with 0 -> String.compare pa pb | c -> c)

let total_bytes entries = List.fold_left (fun acc (_, _, sz) -> acc + sz) 0 entries

(* An over-cap rescan evicts down to 7/8 of the cap, so a full cache is
   rescanned once per cap/8 bytes stored rather than on every store. *)
let low_water t = t.max_bytes - (t.max_bytes / 8)

(* The one directory walk: it resets the running count to the true total.
   A store's rescan passes the entry it just [published]; past the cap it
   evicts the other entries oldest-mtime-first down to the low-water
   mark. *)
let scan ?published t =
  let entries = entries_by_age t in
  let total = total_bytes entries in
  let left = ref total and evicted = ref 0 in
  if Option.is_some published && total > t.max_bytes then
    List.iter
      (fun (path, _, sz) ->
        if !left > low_water t && Some path <> published then begin
          remove path;
          left := !left - sz;
          incr evicted;
          Obs.Counters.incr c_evictions
        end)
      entries;
  Atomic.set t.bytes !left;
  Obs.Counters.incr c_scans;
  Obs.Trace.emit "service.cache_scan"
    [ ("entries", Obs.Json.Int (List.length entries));
      ("bytes", Obs.Json.Int total);
      ("evicted", Obs.Json.Int !evicted)
    ]

let open_ ?(max_bytes = default_max_bytes) dir =
  mkdir_p dir;
  let t = { dir; max_bytes; bytes = Atomic.make 0 } in
  scan t;
  t

(* An entry file starts with a fixed-width [check] field, the MD5 of
   every byte after it: [{"check":"<32 hex>",<the envelope's other
   fields>}\n].  Any truncation or flipped byte fails the check before
   the file is even parsed, at the cost of one digest over the file. *)
let check_header digest = String.concat "" [ {|{"check":"|}; Digest.to_hex digest; {|",|} ]

let check_end = String.length (check_header (Digest.string ""))

let with_check doc =
  let text = Obs.Json.to_string doc in
  let rest = String.sub text 1 (String.length text - 1) ^ "\n" in
  check_header (Digest.string rest) ^ rest

let check_ok contents =
  let n = String.length contents in
  n >= check_end
  && String.sub contents 0 check_end
     = check_header (Digest.substring contents check_end (n - check_end))

let drop_corrupt t path ~bytes =
  Obs.Counters.incr c_corrupt;
  remove path;
  ignore (Atomic.fetch_and_add t.bytes (-bytes))

(* A lookup either returns the stored payload or degrades to a miss;
   truncated, unparseable or mismatched entries are deleted so the next
   store rewrites them.  A hit refreshes the file's mtime — the eviction
   order is least-recently-used. *)
let find t key =
  Obs.Span.with_ "service.cache_find" @@ fun () ->
  let path = entry_path t key in
  match read_all path with
  | exception Unix.Unix_error _ ->
    Obs.Counters.incr c_misses;
    None
  | contents ->
    let valid =
      if not (check_ok contents) then None
      else
        match Obs.Json.of_string contents with
        | Error _ -> None
        | Ok j -> (
          let field name =
            match Obs.Json.member name j with
            | Some (Obs.Json.String s) -> Some s
            | _ -> None
          in
          let format_ok =
            match Obs.Json.member "format" j with
            | Some (Obs.Json.Int v) -> v = Key.format key
            | _ -> false
          in
          match Obs.Json.member "payload" j with
          | Some payload
            when field "schema" = Some schema_name
                 && format_ok
                 && field "digest" = Some (Key.digest key) ->
            Some payload
          | _ -> None)
    in
    (match valid with
     | Some _ ->
       (try Unix.utimes path 0.0 0.0 (* both 0: set to now *)
        with Unix.Unix_error _ -> ());
       Obs.Counters.incr c_hits
     | None ->
       drop_corrupt t path ~bytes:(String.length contents);
       Obs.Counters.incr c_misses);
    valid

type stats = { entries : int; bytes : int }

(* a directory walk per call, cheap at scrape frequency; unlike the
   running count it sees every writer's entries at once *)
let stats t =
  let entries = entries_by_age t in
  { entries = List.length entries; bytes = total_bytes entries }

let store t key payload =
  Obs.Span.with_ "service.cache_store" @@ fun () ->
  let doc =
    Obs.Json.Assoc
      [ ("schema", Obs.Json.String schema_name);
        ("format", Obs.Json.Int (Key.format key));
        ("digest", Obs.Json.String (Key.digest key));
        ("label", Obs.Json.String (Key.label key));
        ("payload", payload)
      ]
  in
  let contents = with_check doc in
  let tmp = Filename.temp_file ~temp_dir:t.dir ".store" ".tmp" in
  let oc = open_out_bin tmp in
  (try Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)
   with e ->
     remove tmp;
     raise e);
  let path = entry_path t key in
  let replaced =
    match Unix.stat path with
    | st when st.Unix.st_kind = Unix.S_REG -> st.Unix.st_size
    | _ | (exception Unix.Unix_error _) -> 0
  in
  (* atomic publish: a concurrent reader sees the old entry or the new
     one, never a torn write *)
  Unix.rename tmp path;
  Obs.Counters.incr c_stores;
  let delta = String.length contents - replaced in
  if Atomic.fetch_and_add t.bytes delta + delta > t.max_bytes then scan ~published:path t
