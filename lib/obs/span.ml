(* current path, innermost first — per domain, so a helper domain cannot
   corrupt its parent's open spans; a spawned domain starts with a copy of
   its parent's *)
let stack_key : string list ref Domain.DLS.key =
  Domain.DLS.new_key ~split_from_parent:(fun r -> ref !r) (fun () -> ref [])

let now () = Unix.gettimeofday ()

(* recorded into whichever capture is current when the span closes *)
let record path dt =
  let c = Capture.span (Capture.current ()) path in
  c.calls <- c.calls + 1;
  c.total_s <- c.total_s +. dt

let with_ name f =
  let stack = Domain.DLS.get stack_key in
  let path = String.concat "/" (List.rev (name :: !stack)) in
  let saved = !stack in
  stack := name :: saved;
  let t0 = now () in
  Fun.protect
    ~finally:(fun () ->
      record path (now () -. t0);
      stack := saved)
    f

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let depth () = List.length !(Domain.DLS.get stack_key)

let reset () =
  Hashtbl.reset Capture.shared.spans;
  Option.iter (fun s -> Hashtbl.reset s.Capture.spans) (Capture.local ())

let report () = Capture.spans (Capture.current ())

let pp_report fmt () =
  let entries = report () in
  let width =
    List.fold_left (fun acc (p, _, _) -> max acc (String.length p)) 8 entries
  in
  Format.fprintf fmt "%-*s %8s %12s %12s@." width "span" "calls" "total(ms)" "mean(ms)";
  List.iter
    (fun (p, n, t) ->
      Format.fprintf fmt "%-*s %8d %12.3f %12.4f@." width p n (t *. 1e3)
        (t *. 1e3 /. float_of_int (max n 1)))
    entries
