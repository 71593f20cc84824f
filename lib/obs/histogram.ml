(* Log-bucketed mergeable histograms (DDSketch-style).

   Bucketing: value v > 0 lands in bucket [i = ceil (log_gamma v)] with
   gamma = 2^(1/8), so bucket i covers (gamma^(i-1), gamma^i] and the
   midpoint estimate 2*gamma^i/(gamma+1) is within (gamma-1)/(gamma+1)
   ~ 4.3% relative error of any value in the bucket — good enough to
   read p99 latencies off without storing samples.  Values at or below
   [v_floor] (1ns when the unit is seconds) share the floor bucket, so
   zero and negative observations cannot produce infinite indices.

   Determinism: bucket counts and the observation count are ints; the
   running sum is kept in fixed point (units of 2^-30) so summation is
   associative and a merge of per-task deltas in task-index order
   reproduces the sequential run bit-for-bit — float accumulation would
   drift with the grouping.  min/max are exact.

   Sharding: like {!Counters}, the hot path takes no lock.  The
   coordinating domain owns each histogram's shared cell; inside an
   [Obs.scoped] capture (every worker task runs in one), recording lands
   in the capture's own cell, which [Obs.merge] folds back after the
   join. *)

let sub_buckets_per_octave = 8
let gamma = Float.pow 2.0 (1.0 /. float_of_int sub_buckets_per_octave)
let log_gamma = Float.log gamma
let v_floor = 1e-9
let floor_bucket = int_of_float (Float.ceil (Float.log v_floor /. log_gamma))

(* fixed-point unit of the deterministic running sum: 2^-30 per 1.0 *)
let fp_scale = 1024. *. 1024. *. 1024.

let bucket_of v =
  if v <= v_floor then floor_bucket
  else int_of_float (Float.ceil (Float.log v /. log_gamma))

let bucket_upper i = Float.pow gamma (float_of_int i)

let bucket_value i =
  if i <= floor_bucket then v_floor
  else 2.0 *. bucket_upper i /. (gamma +. 1.0)

type cell = Capture.hist_cell = {
  mutable count : int;
  mutable sum_fp : int;
  mutable vmin : float;
  mutable vmax : float;
  buckets : (int, int ref) Hashtbl.t;
}

type t = { hname : string; doc : string; shared : cell }

(* Registry: writes (create) are mutex-serialized; reads go through an
   atomically published immutable list, so snapshotting never contends
   with the hot path — the Counters registry works the same way. *)
let registry : (string, t) Hashtbl.t = Hashtbl.create 16
let registry_lock = Mutex.create ()
let published : (string * t) list Atomic.t = Atomic.make []

let publish () =
  Atomic.set published
    (Hashtbl.fold (fun n h acc -> (n, h) :: acc) registry []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let create ?(doc = "") hname =
  Mutex.lock registry_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_lock)
    (fun () ->
      match Hashtbl.find_opt registry hname with
      | Some h -> h
      | None ->
        let h = { hname; doc; shared = Capture.hist Capture.shared hname } in
        Hashtbl.replace registry hname h;
        publish ();
        h)

let name h = h.hname
let doc h = h.doc

(* ------------------------------------------------------------------ *)
(* recording                                                            *)
(* ------------------------------------------------------------------ *)

let record_cell c v =
  c.count <- c.count + 1;
  c.sum_fp <- c.sum_fp + int_of_float (Float.round (v *. fp_scale));
  if v < c.vmin then c.vmin <- v;
  if v > c.vmax then c.vmax <- v;
  let i = bucket_of v in
  match Hashtbl.find_opt c.buckets i with
  | Some r -> incr r
  | None -> Hashtbl.replace c.buckets i (ref 1)

let observe h v =
  match Capture.local () with
  | Some s -> record_cell (Capture.hist s h.hname) v
  | None -> record_cell h.shared v

(* ------------------------------------------------------------------ *)
(* snapshots                                                            *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  name : string;
  count : int;
  sum_fp : int;
  min : float;
  max : float;
  buckets : (int * int) list;
}

let snapshot_of_cell name (c : cell) =
  { name;
    count = c.count;
    sum_fp = c.sum_fp;
    min = c.vmin;
    max = c.vmax;
    buckets =
      Hashtbl.fold (fun i r acc -> (i, !r) :: acc) c.buckets []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  }

let local_cell hname =
  Option.bind (Capture.local ()) (fun s -> Hashtbl.find_opt s.Capture.hists hname)

(* inside a capture, a handle reads shared + local delta, mirroring the
   counter semantics: a task observes its own recordings *)
let snapshot_of h =
  match local_cell h.hname with
  | None -> snapshot_of_cell h.hname h.shared
  | Some local ->
    let sum = Capture.fresh_hist () in
    Capture.add_hist sum h.shared;
    Capture.add_hist sum local;
    snapshot_of_cell h.hname sum

let snapshot () = List.map (fun (_, h) -> snapshot_of h) (Atomic.get published)

let docs () = List.map (fun (n, h) -> (n, h.doc)) (Atomic.get published)

let count h = (snapshot_of h).count

let sum s = float_of_int s.sum_fp /. fp_scale

let mean s = if s.count = 0 then 0.0 else sum s /. float_of_int s.count

(* cumulative walk to the bucket holding rank [ceil (q * count)]; the
   estimate is the bucket midpoint clamped into the exact [min, max] *)
let quantile s q =
  if s.count = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int s.count))) in
    let rec walk cum = function
      | [] -> s.max
      | (i, n) :: rest ->
        let cum = cum + n in
        if cum >= rank then bucket_value i else walk cum rest
    in
    let est = walk 0 s.buckets in
    Float.max s.min (Float.min s.max est)
  end

let find hname =
  match List.assoc_opt hname (Atomic.get published) with
  | Some h -> Some (snapshot_of h)
  | None -> None

let reset_all () =
  List.iter
    (fun (_, h) ->
      let c = h.shared in
      c.count <- 0;
      c.sum_fp <- 0;
      c.vmin <- Float.infinity;
      c.vmax <- Float.neg_infinity;
      Hashtbl.reset c.buckets)
    (Atomic.get published);
  Option.iter (fun s -> Hashtbl.reset s.Capture.hists) (Capture.local ())

(* ------------------------------------------------------------------ *)
(* rendering                                                            *)
(* ------------------------------------------------------------------ *)

let summary_json s =
  Json.Assoc
    [ ("count", Json.Int s.count);
      ("sum", Json.Float (sum s));
      ("min", Json.Float (if s.count = 0 then 0.0 else s.min));
      ("max", Json.Float (if s.count = 0 then 0.0 else s.max));
      ("mean", Json.Float (mean s));
      ("p50", Json.Float (quantile s 0.5));
      ("p90", Json.Float (quantile s 0.9));
      ("p99", Json.Float (quantile s 0.99));
      ("p999", Json.Float (quantile s 0.999))
    ]

let pp_table fmt () =
  let snaps = List.filter (fun s -> s.count > 0) (snapshot ()) in
  if snaps <> [] then begin
    let width =
      List.fold_left (fun acc s -> max acc (String.length s.name)) 9 snaps
    in
    Format.fprintf fmt "%-*s %8s %12s %12s %12s %12s@." width "histogram" "count"
      "mean" "p50" "p99" "max";
    List.iter
      (fun s ->
        Format.fprintf fmt "%-*s %8d %12.6f %12.6f %12.6f %12.6f@." width s.name
          s.count (mean s) (quantile s 0.5) (quantile s 0.99) s.max)
      snaps
  end
