module Json = Json
module Counters = Counters
module Histogram = Histogram
module Metrics = Metrics
module Span = Span
module Trace = Trace
module Tracefile = Tracefile
module Summary = Summary
module Chrome = Chrome
module Export = Export

type capture = Capture.t

let scoped f =
  let c = Capture.create () in
  match Capture.within c f with
  | r -> (r, c)
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Capture.merge c;
    Printexc.raise_with_backtrace e bt

let merge = Capture.merge

let spans = Capture.spans

let reset_all () =
  Counters.reset_all ();
  Histogram.reset_all ();
  Span.reset ();
  Trace.clear ()
