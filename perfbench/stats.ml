(* Small numeric helpers shared by the workloads. *)

(* Nearest-rank quantile of an unsorted sample; 0 for an empty one. *)
let quantile xs q =
  match xs with
  | [] -> 0.0
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median xs = quantile xs 0.5
let sum xs = List.fold_left ( +. ) 0.0 xs

(* Sorted first, so the result does not depend on the sample's order. *)
let geomean = function
  | [] -> 0.0
  | xs -> exp (sum (List.map log (List.sort compare xs)) /. float_of_int (List.length xs))

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* CPU seconds of this process and its waited-for children.  The
   benchmark times work by CPU time rather than wall time: on a shared
   virtual machine the wall clock also counts the time the host steals
   from the virtual CPUs, which here varies by tens of percent from run to
   run, while the guest kernel leaves stolen time out of CPU time. *)
let now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Host speed probe.  The CPU time of a fixed piece of work swings by up
   to half from one minute to the next on a shared host, with no stolen
   time involved, so the benchmark scales its timings by how fast this
   probe ran next to them: a timing t measured while the probe took p
   seconds on average is reported as t * probe_reference_s / p, the time
   it would have taken on a host that runs the probe in
   probe_reference_s. *)
let probe_reference_s = 0.002

let probe () =
  let work () =
    let acc = ref 0 in
    for i = 1 to 12_000 do
      let l = List.init 16 (fun j -> Sys.opaque_identity (i lxor j)) in
      acc := !acc + List.fold_left ( + ) 0 (List.rev l)
    done;
    Sys.opaque_identity !acc
  in
  snd (timed work)

(* The factor that scales timings taken where probes took [ps]. *)
let scale ps = probe_reference_s *. float_of_int (List.length ps) /. sum ps

(* Probes taken inside a timed call, every [probe_every_s] of this
   process's own CPU time, so that the speed of a call lasting seconds is
   followed while it runs. *)
let probe_every_s = 0.05
let inner_probes = ref []
let sampling = ref false

let () =
  Sys.set_signal Sys.sigvtalrm
    (Sys.Signal_handle (fun _ -> if !sampling then inner_probes := probe () :: !inner_probes))

let set_sampling on =
  sampling := on;
  let every = if on then probe_every_s else 0.0 in
  ignore (Unix.setitimer Unix.ITIMER_VIRTUAL { Unix.it_interval = every; it_value = every })

(* Runs [f] between two probes, and with probes every [probe_every_s]
   while it runs; returns its result, its CPU seconds without the inner
   probes, and the factor that scales them. *)
let timed_scaled f =
  let before = probe () in
  inner_probes := [];
  set_sampling true;
  let r, dt = Fun.protect ~finally:(fun () -> set_sampling false) (fun () -> timed f) in
  let inner = !inner_probes in
  (r, dt -. sum inner, scale ((before :: probe () :: inner)))

(* Peak resident set of this process in MiB (VmHWM), 0 where /proc is
   missing. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
      | _ -> scan ()
    in
    let r = scan () in
    close_in ic;
    r

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())

let count_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i acc =
    if i + n > m then acc
    else if String.sub s i n = sub then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  if n = 0 then 0 else go 0 0
