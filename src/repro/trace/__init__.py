"""repro.trace — kernel-wide tracepoints, metrics, and cycle attribution.

The simulator's observability layer (cf. ftrace/eBPF in docs/OBSERVABILITY.md):

* :class:`Tracer` — static tracepoints emitting begin/end spans, complete
  events, and instants into a bounded drop-oldest ring buffer, stamped
  with the simulated clock;
* :class:`Attribution` — hierarchical self/total cycle decomposition of a
  traced window, summing exactly to the clock's elapsed cycles, diffable
  between runs;
* :class:`MetricsRegistry` — named counters/gauges/histograms the
  previously scattered subsystem counters register on;
* :func:`chrome_trace` / :func:`write_chrome_trace` — Perfetto-loadable
  Trace Event Format export.

Tracing never charges the simulated clock (bit-identity with tracing on
vs. off is asserted in ``tests/trace/``), and a disabled tracer costs one
attribute check per tracepoint.  Set ``REPRO_TRACE=1`` to boot every
kernel with tracing enabled.
"""

from repro.trace.attribution import Attribution, SpanStat, render_diff
from repro.trace.flamegraph import flamegraph_svg, write_flamegraph
from repro.trace.metrics import (Counter, Gauge, Histogram, Metric,
                                 MetricsRegistry, PercpuCounter)
from repro.trace.perfetto import chrome_trace, write_chrome_trace
from repro.trace.prof import (DEFAULT_PERIOD, ENV_PROF, ENV_PROF_PERIOD,
                              MaxWitness, Profiler)
from repro.trace.tracepoints import (DEFAULT_CAPACITY, PH_BEGIN, PH_COMPLETE,
                                     PH_COUNTER, PH_END, PH_INSTANT,
                                     TraceEvent, Tracer)

#: environment knob: boot kernels with tracing enabled.
ENV_TRACE = "REPRO_TRACE"
#: environment knob: benchmark trace/attribution output directory.
ENV_TRACE_OUT = "REPRO_TRACE_OUT"

__all__ = [
    "Attribution", "SpanStat", "render_diff",
    "Counter", "Gauge", "Histogram", "Metric", "MetricsRegistry",
    "PercpuCounter",
    "chrome_trace", "write_chrome_trace",
    "flamegraph_svg", "write_flamegraph",
    "Profiler", "MaxWitness", "DEFAULT_PERIOD",
    "Tracer", "TraceEvent", "DEFAULT_CAPACITY",
    "PH_BEGIN", "PH_END", "PH_COMPLETE", "PH_INSTANT", "PH_COUNTER",
    "ENV_TRACE", "ENV_TRACE_OUT", "ENV_PROF", "ENV_PROF_PERIOD",
]
