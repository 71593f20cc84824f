(* [v] is the counter's shared cell, where merges outside every capture
   land too; [id] indexes a capture's delta array. *)
type t = { cname : string; doc : string; id : int; v : int ref }

(* The registry is written only by [create] (module-initialization time
   in practice), which is mutex-serialized; every read path — [find],
   [snapshot], [reset_all], the metrics exposition — goes through an
   immutable association list republished atomically on each create.
   Readers therefore never touch the lock, so a worker domain polling
   counters (the ROADMAP's registry_lock contention suspect under
   [--jobs]) contends with nothing. *)
let registry : (string, t) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()
let published : (string * t) list Atomic.t = Atomic.make []

let publish () =
  Atomic.set published
    (Hashtbl.fold (fun n c acc -> (n, c) :: acc) registry []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let create ?(doc = "") cname =
  Mutex.lock registry_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_lock)
    (fun () ->
      match Hashtbl.find_opt registry cname with
      | Some c -> c
      | None ->
        let id, v = Capture.new_counter () in
        let c = { cname; doc; id; v } in
        Hashtbl.replace registry cname c;
        publish ();
        c)

(* Inside a capture, increments land in its delta array instead of the
   shared cell, and reads see the shared value plus the delta. *)
let record c n =
  match Capture.local () with
  | Some s -> Capture.add_counter s c.id n
  | None -> c.v := !(c.v) + n

let incr c = record c 1

let add c n =
  if n < 0 then invalid_arg "Obs.Counters.add: negative amount";
  record c n

let value c =
  match Capture.local () with
  | Some s -> !(c.v) + Capture.counter_delta s c.id
  | None -> !(c.v)

let name c = c.cname
let doc c = c.doc

let find cname =
  match List.assoc_opt cname (Atomic.get published) with
  | Some c -> value c
  | None -> 0

let reset_all () =
  List.iter (fun (_, c) -> c.v := 0) (Atomic.get published);
  Option.iter (fun s -> Array.fill s.Capture.counters 0 (Array.length s.counters) 0) (Capture.local ())

let snapshot () = List.map (fun (n, c) -> (n, value c)) (Atomic.get published)

let docs () = List.map (fun (n, c) -> (n, c.doc)) (Atomic.get published)

let pp_table fmt () =
  let entries = List.filter (fun (_, v) -> v <> 0) (snapshot ()) in
  let width =
    List.fold_left (fun acc (n, _) -> max acc (String.length n)) 8 entries
  in
  List.iter (fun (n, v) -> Format.fprintf fmt "%-*s %12d@." width n v) entries
