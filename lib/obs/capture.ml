(* The one domain-local capture behind [Obs.scoped] / [Obs.merge].

   Outside every capture, counters, spans, histograms and trace events
   record into [shared], the process-wide state the coordinating domain
   owns.  [within] installs a capture in this domain's one DLS slot, and
   recording lands in it instead; [merge] folds a finished capture into
   whatever encloses the caller — the next capture out, or [shared].
   Counter and histogram handles cache their [shared] cell, so an
   increment outside every capture is still one field update; inside
   one, a counter's delta sits at the counter's registration id in an
   [int] array, so an increment there hashes nothing either. *)

type span_cell = { mutable calls : int; mutable total_s : float }

type hist_cell = {
  mutable count : int;
  mutable sum_fp : int;
  mutable vmin : float;
  mutable vmax : float;
  buckets : (int, int ref) Hashtbl.t;
}

type event = {
  seq : int;
  ts_us : float;
  kind : string;
  fields : (string * Json.t) list;
}

type t = {
  mutable counters : int array;  (* deltas by counter id; unused in [shared] *)
  spans : (string, span_cell) Hashtbl.t;
  hists : (string, hist_cell) Hashtbl.t;
  mutable events : event list;  (* newest first *)
  mutable n_events : int;
}

(* counter id -> the counter's shared cell, republished on each
   registration; [new_counter]'s callers serialize on their registry lock *)
let counter_cells : int ref array Atomic.t = Atomic.make [||]

let new_counter () =
  let cells = Atomic.get counter_cells in
  let r = ref 0 in
  Atomic.set counter_cells (Array.append cells [| r |]);
  (Array.length cells, r)

let create () =
  { counters = Array.make (Array.length (Atomic.get counter_cells)) 0;
    spans = Hashtbl.create 16;
    hists = Hashtbl.create 4;
    events = [];
    n_events = 0
  }

(* Written by the registries' [create] (under their locks) and by [merge]
   outside every capture, which only the coordinating domain does, after
   its workers are joined. *)
let shared = create ()

let key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* the innermost open capture of this domain, if any *)
let local () = Domain.DLS.get key

let current () = match Domain.DLS.get key with Some c -> c | None -> shared

let cell tbl name fresh =
  match Hashtbl.find_opt tbl name with
  | Some c -> c
  | None ->
    let c = fresh () in
    Hashtbl.replace tbl name c;
    c

let counter_delta c id = if id < Array.length c.counters then c.counters.(id) else 0

(* a counter registered after [c] was created grows its array *)
let add_counter c id n =
  if id >= Array.length c.counters then begin
    let a = Array.make (Array.length (Atomic.get counter_cells)) 0 in
    Array.blit c.counters 0 a 0 (Array.length c.counters);
    c.counters <- a
  end;
  c.counters.(id) <- c.counters.(id) + n

let span c path = cell c.spans path (fun () -> { calls = 0; total_s = 0.0 })

let fresh_hist () =
  { count = 0; sum_fp = 0; vmin = Float.infinity; vmax = Float.neg_infinity;
    buckets = Hashtbl.create 16 }

let hist c name = cell c.hists name fresh_hist

(* appends an event, numbering it in [c]'s own sequence: a capture's
   numbers are placeholders that [merge] reassigns *)
let push c e =
  c.events <- { e with seq = c.n_events } :: c.events;
  c.n_events <- c.n_events + 1

let spans c =
  Hashtbl.fold (fun path s acc -> (path, s.calls, s.total_s) :: acc) c.spans []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let within c f =
  let saved = Domain.DLS.get key in
  Domain.DLS.set key (Some c);
  Fun.protect ~finally:(fun () -> Domain.DLS.set key saved) f

let add_hist (dst : hist_cell) (src : hist_cell) =
  dst.count <- dst.count + src.count;
  dst.sum_fp <- dst.sum_fp + src.sum_fp;
  if src.vmin < dst.vmin then dst.vmin <- src.vmin;
  if src.vmax > dst.vmax then dst.vmax <- src.vmax;
  Hashtbl.iter (fun i n -> let r = cell dst.buckets i (fun () -> ref 0) in r := !r + !n) src.buckets

(* Every part is an exact integer except the span seconds, and each is
   folded per name, so the result does not depend on table order. *)
let merge src =
  let dst = current () in
  let cells = Atomic.get counter_cells in
  Array.iteri
    (fun id d ->
      if d <> 0 then
        if dst == shared then cells.(id) := !(cells.(id)) + d else add_counter dst id d)
    src.counters;
  Hashtbl.iter
    (fun path (s : span_cell) ->
      let c = span dst path in
      c.calls <- c.calls + s.calls;
      c.total_s <- c.total_s +. s.total_s)
    src.spans;
  Hashtbl.iter (fun name h -> add_hist (hist dst name) h) src.hists;
  List.iter (push dst) (List.rev src.events)
