"""Chrome trace-event / Perfetto JSON export of a traced window.

The output follows the Trace Event Format (the JSON flavour Perfetto and
``chrome://tracing`` both load): one ``B``/``E``/``X``/``i`` record per
ring event, timestamps converted from simulated cycles to microseconds at
the clock's configured frequency.  Each simulated CPU renders as one
track (pid 0 / tid *c*, named "cpu*c*"): events carry the CPU index the
tracer stamped them with, and span nesting is strict per track because
each CPU keeps its own span stack.  Task identity travels in ``args``.
Single-CPU kernels produce exactly the pre-SMP document — one "cpu0"
track, byte for byte.

If the drop-oldest ring overflowed, the oldest events are gone: the
export notes how many in ``otherData.dropped_oldest_events`` and the
earliest spans may show unmatched ``E`` records (viewers tolerate this).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from repro.trace.tracepoints import (PH_BEGIN, PH_COMPLETE, PH_COUNTER,
                                     PH_END, PH_INSTANT, Tracer)

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.prof import Profiler


def chrome_trace(tracer: Tracer, *, process_name: str = "repro-kernel",
                 profiler: "Profiler | None" = None) -> dict:
    """Build the Trace Event Format document for one traced window.

    With a ``profiler`` the document additionally carries the sampling
    profiler's view of the same window: one ``prof:sample`` instant per
    retained sample (on the sampled CPU's track, stack and weight in
    ``args``) and the allowlisted counter tracks (runqueue depth, CQ
    backlog, TLB misses) as ``C`` time-series events — so a Perfetto
    view shows *load*, not just spans.
    """
    hz = tracer.clock.hz
    us_per_cycle = 1e6 / hz

    def us(cycles: int) -> float:
        return round(cycles * us_per_cycle, 4)

    events: list[dict] = [
        {"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
         "args": {"name": process_name}},
    ]
    for c in range(tracer.ncpus):
        events.append({"ph": "M", "name": "thread_name", "pid": 0, "tid": c,
                       "args": {"name": f"cpu{c}"}})
    for ph, name, cat, ts, dur, args, cpu in tracer.events():
        ev: dict = {"ph": ph, "name": name, "cat": cat, "ts": us(ts),
                    "pid": 0, "tid": cpu}
        if ph == PH_COMPLETE:
            ev["dur"] = us(dur or 0)
        elif ph == PH_INSTANT:
            ev["s"] = "t"   # thread-scoped instant
        elif ph == PH_COUNTER:
            pass            # args already carries {"value": v}
        elif ph not in (PH_BEGIN, PH_END):  # pragma: no cover - future phases
            continue
        if args:
            ev["args"] = dict(args)
        events.append(ev)
    if profiler is not None:
        from repro.trace.prof import S_CAT, S_CPU, S_STACK, S_TASK, S_TS, \
            S_WEIGHT
        for s in profiler.samples():
            events.append({
                "ph": "i", "name": "prof:sample", "cat": "prof",
                "ts": us(s[S_TS]), "pid": 0, "tid": s[S_CPU], "s": "t",
                "args": {"task": s[S_TASK], "stack": ";".join(s[S_STACK]),
                         "category": s[S_CAT], "weight": s[S_WEIGHT]},
            })
        for ts, cpu, name, value in profiler.counter_samples():
            events.append({
                "ph": "C", "name": name, "cat": "counter", "ts": us(ts),
                "pid": 0, "tid": cpu, "args": {"value": value},
            })
    ring = tracer.ring
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "simulated_hz": hz,
            "window_start_cycles": tracer.window_start,
            "events_emitted": ring.total_pushed,
            "dropped_oldest_events": ring.dropped_oldest,
        },
    }
    if profiler is not None:
        doc["otherData"]["prof_samples"] = profiler.samples_taken
        doc["otherData"]["prof_period_cycles"] = profiler.period
    return doc


def write_chrome_trace(tracer: Tracer, path: str | Path, *,
                       process_name: str = "repro-kernel",
                       profiler: "Profiler | None" = None) -> Path:
    """Serialize :func:`chrome_trace` to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = chrome_trace(tracer, process_name=process_name, profiler=profiler)
    path.write_text(json.dumps(doc) + "\n")
    return path
