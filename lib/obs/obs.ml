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

let reset_all () =
  Counters.reset_all ();
  Histogram.reset_all ();
  Span.reset ();
  Trace.clear ()
