"""Kernel-wide static tracepoints with begin/end spans on a shared timeline.

This is the simulator's ftrace: subsystems declare *tracepoints* at fixed
sites (syscall entry/exit, context switches, page faults, disk requests,
NIC hardirq/softirq, Cosy compound elements, C-minus engine calls, syslog
lines) and, when tracing is enabled, each emits events stamped with the
executing CPU's local clock into a bounded drop-oldest ring buffer.

Three event shapes:

* **spans** — ``begin(name, cat)`` / ``end()`` bracket work whose duration
  is not known up front (a syscall handler, a softirq drain).  Spans nest
  on a stack; attribution splits each span's cycles into *self* and
  *children*.
* **complete events** — ``complete(name, cat, dur)`` records a span
  retroactively when the whole cost was charged as one quantum (a TLB
  miss, a disk request, a context switch): the span covers the ``dur``
  cycles ending *now*.
* **instants** — ``instant(name, cat)`` marks a point (a wakeup, a syslog
  line, a fault injection decision).

SMP (docs/SMP.md): the tracer keeps one span stack, stat table, and
window per CPU.  Emitters stamp events with ``Clock.local_now()`` on the
executing CPU and tag each ring entry with that CPU index, so the
Perfetto export renders one track per CPU.  :meth:`attribution` with no
argument *merges* the per-CPU windows — per-CPU windows sum to the
global ``Δ Clock.now`` because every charge lands on exactly one CPU's
local clock — so the invariant ``Σ self + untraced == window`` holds
both per CPU and merged.  On a single-CPU kernel all of this collapses
to the original single-timeline behavior, bit for bit.

Two invariants the whole design hangs off:

1. **Zero cost-model impact.**  The tracer only ever *reads* the clock;
   nothing here charges cycles, so the simulated clock is bit-identical
   with tracing on or off (asserted in ``tests/trace/``, and run-wide via
   ``REPRO_TRACE=1``).
2. **Near-zero overhead when disabled.**  Every emitter returns after a
   single attribute check; hot call sites additionally guard with
   ``if tracer.enabled:`` so argument construction is skipped too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.safety.monitor.ringbuf import LockFreeRingBuffer
from repro.trace.attribution import Attribution, SpanStat

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.clock import Clock

#: default ring capacity (events); must be a power of two.
DEFAULT_CAPACITY = 1 << 16

#: event phases, following the Chrome trace-event vocabulary.
PH_BEGIN, PH_END, PH_COMPLETE, PH_INSTANT = "B", "E", "X", "i"
#: counter-track phase: a (name, value) time-series point.
PH_COUNTER = "C"

#: one ring entry:
#: (phase, name, category, ts_cycles, dur_cycles|None, args|None, cpu)
TraceEvent = tuple


class Tracer:
    """The per-kernel tracepoint registry and span engine."""

    def __init__(self, clock: "Clock", capacity: int = DEFAULT_CAPACITY):
        self.clock = clock
        self.ncpus = getattr(clock, "cpus", 1)
        self.capacity = capacity
        #: the one flag every tracepoint checks; False ⇒ everything no-ops.
        self.enabled = False
        self.ring: LockFreeRingBuffer[TraceEvent] = LockFreeRingBuffer(
            capacity, policy="drop-oldest")
        # One timeline per CPU: frames are [name, cat, start, child].
        self._stacks: list[list[list]] = [[] for _ in range(self.ncpus)]
        self._statsv: list[dict[str, SpanStat]] = [
            {} for _ in range(self.ncpus)]
        self._t0s: list[int] = [0] * self.ncpus
        self._t_ends: list[int | None] = [None] * self.ncpus
        #: attached sampling profiler (repro.trace.prof); notified on
        #: every complete event so retroactive quanta relabel the samples
        #: that landed inside them.  None = no profiler armed.
        self._prof = None

    # ------------------------------------------------------------ lifecycle

    def enable(self) -> None:
        """Start (or restart) tracing: a fresh window opens *now* on every
        CPU (each window anchored at that CPU's local clock)."""
        self.enabled = True
        for c in range(self.ncpus):
            t0 = self.clock.local_now(c)
            self._t0s[c] = t0
            self._t_ends[c] = None
            self._stacks[c] = [["(cpu)", "root", t0, 0]]
            self._statsv[c] = {}
        self.ring = LockFreeRingBuffer(self.capacity, policy="drop-oldest")

    def disable(self) -> None:
        """Freeze every CPU's window; events and attribution stay readable."""
        if self.enabled:
            for c in range(self.ncpus):
                self._t_ends[c] = self.clock.local_now(c)
        self.enabled = False

    @property
    def window_start(self) -> int:
        """Window anchor of CPU 0 (the only CPU on pre-SMP kernels)."""
        return self._t0s[0]

    # ------------------------------------------------------------- emitters

    @staticmethod
    def _accum(name: str, cat: str, total: int, self_cycles: int,
               stats: dict[str, SpanStat]) -> None:
        s = stats.get(name)
        if s is None:
            s = stats[name] = SpanStat(cat)
        s.count += 1
        s.total_cycles += total
        s.self_cycles += self_cycles

    def begin(self, name: str, cat: str = "kernel", **args) -> None:
        """Open a span on the executing CPU; must be matched by
        :meth:`end` (spans nest per CPU)."""
        if not self.enabled:
            return
        cpu = self.clock.cpu
        now = self.clock.local_now()
        self._stacks[cpu].append([name, cat, now, 0])
        self.ring.try_push((PH_BEGIN, name, cat, now, None, args or None,
                            cpu))

    def end(self, **args) -> None:
        """Close the innermost open span on the executing CPU.  Unmatched
        ends (tracing enabled mid-span) are ignored rather than corrupting
        the stack."""
        if not self.enabled:
            return
        cpu = self.clock.cpu
        stack = self._stacks[cpu]
        if len(stack) <= 1:
            return
        name, cat, start, child = stack.pop()
        now = self.clock.local_now()
        total = now - start
        self._accum(name, cat, total, total - child, self._statsv[cpu])
        stack[-1][3] += total
        self.ring.try_push((PH_END, name, cat, now, None, args or None,
                            cpu))

    def complete(self, name: str, cat: str, dur: int, **args) -> None:
        """Record a span of ``dur`` cycles ending now (cost charged as one
        quantum, e.g. a TLB miss or a disk request)."""
        if not self.enabled:
            return
        cpu = self.clock.cpu
        now = self.clock.local_now()
        self._accum(name, cat, dur, dur, self._statsv[cpu])
        self._stacks[cpu][-1][3] += dur
        self.ring.try_push((PH_COMPLETE, name, cat, now - dur, dur,
                            args or None, cpu))
        prof = self._prof
        if prof is not None:
            prof.on_complete(cpu, name, cat, now, dur)

    def counter(self, name: str, value: int, cat: str = "counter") -> None:
        """Record one point of a counter track (Perfetto ``C`` event):
        the named time series takes ``value`` at the current local time."""
        if not self.enabled:
            return
        cpu = self.clock.cpu
        self.ring.try_push((PH_COUNTER, name, cat, self.clock.local_now(),
                            None, {"value": value}, cpu))

    def instant(self, name: str, cat: str = "kernel", **args) -> None:
        """Mark a point on the executing CPU's timeline."""
        if not self.enabled:
            return
        cpu = self.clock.cpu
        self.ring.try_push((PH_INSTANT, name, cat, self.clock.local_now(),
                            None, args or None, cpu))

    # ------------------------------------------------------------- queries

    @property
    def depth(self) -> int:
        """Open (user-visible) span depth on the executing CPU."""
        return max(len(self._stacks[self.clock.cpu]) - 1, 0)

    def events(self) -> list[TraceEvent]:
        """Drain-free snapshot of the ring's current contents, oldest first."""
        ring = self.ring
        out = []
        mask = ring.capacity - 1
        for i in range(ring._tail, ring._head):
            out.append(ring._slots[i & mask])
        return out

    def attribution(self, cpu: int | None = None) -> Attribution:
        """Cycle decomposition, computed *now*.

        ``cpu=None`` merges every CPU's window: windows, untraced cycles,
        and span stats sum across CPUs (per-CPU windows partition the
        global clock delta, so the merged window equals ``Δ Clock.now``).
        ``cpu=c`` returns CPU *c*'s window alone.

        Open spans (including each implicit cpu root) are closed
        virtually — their partial totals are included without mutating the
        stacks — so the report is valid mid-trace and always sums to the
        window.
        """
        if cpu is not None:
            return self._attribution_cpu(cpu)
        parts = [self._attribution_cpu(c) for c in range(self.ncpus)]
        window = sum(p.window_cycles for p in parts)
        untraced = sum(p.untraced_cycles for p in parts)
        merged: dict[str, SpanStat] = {}
        for p in parts:
            for name, s in p.spans.items():
                m = merged.get(name)
                if m is None:
                    merged[name] = SpanStat(s.category, s.count,
                                            s.total_cycles, s.self_cycles)
                else:
                    m.count += s.count
                    m.total_cycles += s.total_cycles
                    m.self_cycles += s.self_cycles
        return Attribution(window, untraced, merged)

    def _attribution_cpu(self, cpu: int) -> Attribution:
        stack = self._stacks[cpu]
        if not stack:
            return Attribution(0, 0, {})
        t_end = self._t_ends[cpu]
        now = self.clock.local_now(cpu) if t_end is None else t_end
        stats = {name: SpanStat(s.category, s.count, s.total_cycles,
                                s.self_cycles)
                 for name, s in self._statsv[cpu].items()}
        # Virtually close open frames from the innermost outwards: each
        # open frame's total is (now - start); its self time excludes both
        # its closed children (frame[3]) and its one open child (the frame
        # above it on the stack).
        open_child_total = 0
        for name, cat, start, child in reversed(stack[1:]):
            total = now - start
            self._accum(name, cat, total, total - child - open_child_total,
                        stats)
            open_child_total = total
        window = now - self._t0s[cpu]
        root_child = stack[0][3] + open_child_total
        return Attribution(window, window - root_child, stats)
