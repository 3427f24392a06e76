"""Sampling profiler and ftrace-family latency tracers (``repro.trace.prof``).

This is the simulator's *perf*: where PR 5's span attribution answers
"which subsystem", the profiler answers "which code path, on which CPU,
under which tenant" — and adds the ftrace latency-tracer family on top.

Three parts:

* **Sampling profiler.**  A virtual timer fires every ``period`` simulated
  cycles on every CPU.  The trigger is the clock itself: every
  :meth:`~repro.kernel.clock.Clock.charge` checks whether the executing
  CPU's local clock crossed its next sample deadline, and if so captures
  one *weighted* sample — (cpu, timestamp, task, tenant, tracepoint span
  stack, leaf category, C-minus function, weight) — into a bounded
  per-CPU ring.  The weight is the number of period boundaries the charge
  crossed, so one huge quantum (a 21M-cycle disk seek) lands as one
  sample worth its full cycle share instead of a 400-iteration loop:
  sample shares are *exactly* proportional to self-cycles, quantized at
  one period.

* **Latency tracers.**  A wakeup tracer (READY→RUNNING delay per task,
  power-of-two histogram, max-latency witness = the span stack at the
  worst case), an irqsoff max tracer over the per-CPU IRQ-disable depths,
  a preemptoff tracer over the gaps between scheduler preemption points,
  and per-syscall latency histograms observed at dispatch.

* **Exports.**  Folded-stack output (``folded()``/``write_folded``) feeds
  :mod:`repro.trace.flamegraph`; samples and an allowlist of counter
  tracks (runqueue depth, CQ backlog, TLB misses) ride along in the
  Perfetto export (:func:`repro.trace.perfetto.chrome_trace`).

The hard constraint, inherited from the tracer: **zero cost-model
impact**.  Nothing here ever charges the simulated clock — every hook
only *reads* it — so the same workload profiled and unprofiled lands on
bit-identical user/system/iowait counts (``tests/trace/test_prof.py``;
the CI ``observers`` job re-runs the kernel suites under ``REPRO_PROF=1``).

Charge-time samples see the *innermost open span*, which is exactly that
span's self time — but retroactive ``complete`` events (a TLB miss, one
``syscall:boundary`` quantum, a disk request) are not on the stack while
their cost is charged.  The tracer therefore notifies the profiler on
every complete, and the profiler relabels the tail samples that landed
inside the completed quantum (complete ranges on one CPU never overlap:
each covers cycles charged immediately before it).  Without this fixup
roughly half the cycles of a syscall-heavy workload would be
misattributed to the enclosing syscall span.
"""

from __future__ import annotations

import os
from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.trace.metrics import Histogram

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel

#: environment knob: boot kernels with profiling (and tracing) enabled.
ENV_PROF = "REPRO_PROF"
#: environment knob: sample period in simulated cycles.
ENV_PROF_PERIOD = "REPRO_PROF_PERIOD"

#: default sample period (cycles): ~34k samples/simulated-second at the
#: paper's 1.7 GHz, fine enough to split a 1200-cycle syscall trap share.
DEFAULT_PERIOD = 50_000

#: samples kept per CPU (drop-oldest) and counter-track points kept total.
DEFAULT_CAPACITY = 1 << 14
COUNTER_CAPACITY = 1 << 15

#: sample record indices (records are lists so completes can relabel them)
S_CPU, S_TS, S_PID, S_TASK, S_TENANT, S_STACK, S_CAT, S_CMINUS, S_WEIGHT = \
    range(9)

#: folded-stack frame used for samples taken outside any span
UNTRACED_FRAME = "(untraced)"

#: kernel hook points the latency tracers subscribe to, one method each
HOOK_POINTS = ("irq_disable", "irq_enable", "sched_wakeup", "preempt_point",
               "syscall")


def resolve_period(period: int | None = None) -> int:
    """Explicit argument wins, then ``REPRO_PROF_PERIOD``, then default."""
    if period is not None:
        p = int(period)
    else:
        p = int(os.environ.get(ENV_PROF_PERIOD) or DEFAULT_PERIOD)
    if p <= 0:
        raise ValueError(f"sample period must be positive, got {p}")
    return p


class MaxWitness:
    """Worst case seen by one latency tracer: the max plus its context."""

    __slots__ = ("cycles", "ts", "cpu", "pid", "task", "stack")

    def __init__(self) -> None:
        self.cycles = -1
        self.ts = 0
        self.cpu = 0
        self.pid: int | None = None
        self.task = ""
        self.stack: tuple = ()

    def offer(self, cycles: int, ts: int, cpu: int, pid: int | None,
              task: str, stack: tuple) -> None:
        if cycles <= self.cycles:
            return
        self.cycles = cycles
        self.ts = ts
        self.cpu = cpu
        self.pid = pid
        self.task = task
        self.stack = stack

    def to_dict(self) -> dict:
        return {"cycles": max(self.cycles, 0), "ts": self.ts,
                "cpu": self.cpu, "pid": self.pid, "task": self.task,
                "stack": list(self.stack)}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MaxWitness({self.cycles} cyc @{self.ts} cpu{self.cpu})"


class Profiler:
    """Per-kernel sampling profiler + latency tracers.

    Built for every kernel but dormant until :meth:`enable` — a disabled
    profiler costs nothing on the charge path (the clock's sampler slot
    stays ``None``) and is attached to none of the :data:`HOOK_POINTS`.
    """

    def __init__(self, kernel: "Kernel", period: int | None = None,
                 capacity: int = DEFAULT_CAPACITY):
        self.kernel = kernel
        self.clock = kernel.clock
        self.ncpus = kernel.ncpus
        self.period = resolve_period(period)
        self.capacity = capacity
        self.enabled = False
        #: per-CPU sample rings, drop-oldest
        self.rings: list[deque] = [deque(maxlen=capacity)
                                   for _ in range(self.ncpus)]
        self._deadlines = [0] * self.ncpus
        #: weighted sample total (== periods elapsed) and ring pushes
        self.samples_taken = 0
        self.sample_events = 0
        #: counter-track providers: (name, zero-cost read callback)
        self._counters: list[tuple[str, Callable[[], int]]] = []
        self._counter_samples: deque = deque(maxlen=COUNTER_CAPACITY)
        # -- latency tracers -------------------------------------------
        self.wakeup_delay = Histogram(
            "prof.wakeup_delay", help="READY->RUNNING delay (cycles)")
        self.wakeup_max = MaxWitness()
        self.irqsoff = Histogram(
            "prof.irqsoff", help="IRQ-disabled section length (cycles)")
        self.irqsoff_max = MaxWitness()
        self._irq_off_since: list[int | None] = [None] * self.ncpus
        self.preemptoff = Histogram(
            "prof.preemptoff", help="gap between preemption points (cycles)")
        self.preemptoff_max = MaxWitness()
        self._last_preempt_point: list[int | None] = [None] * self.ncpus
        #: per-syscall latency histograms, keyed by syscall name
        self.syscall_lat: dict[str, Histogram] = {}
        self.syscall_nrs: dict[str, int] = {}

    # ------------------------------------------------------------ lifecycle

    def enable(self) -> None:
        """Arm the profiler.  The tracer must already be enabled (the
        span stacks are the sample context); :class:`Kernel` guarantees
        this when booting with ``profile=True`` / ``REPRO_PROF=1``."""
        clock = self.clock
        for c in range(self.ncpus):
            self._deadlines[c] = clock.local_now(c) + self.period
            self._last_preempt_point[c] = None
            self._irq_off_since[c] = None
        if not self.enabled:
            for point in HOOK_POINTS:
                self.kernel.hooks.attach(point, getattr(self, point))
        self.enabled = True
        clock._sampler = self
        self.kernel.trace._prof = self

    def disable(self) -> None:
        """Disarm; collected samples and histograms stay readable."""
        if self.enabled:
            for point in HOOK_POINTS:
                self.kernel.hooks.detach(point, getattr(self, point))
        self.enabled = False
        if self.clock._sampler is self:
            self.clock._sampler = None
        if self.kernel.trace._prof is self:
            self.kernel.trace._prof = None

    # ------------------------------------------------------------- sampling

    def tick(self) -> None:
        """Charge-path hook: called by the clock after every charge.
        Reads the clock, never writes it."""
        clock = self.clock
        cpu = clock.cpu
        now = clock.local_now(cpu)
        deadline = self._deadlines[cpu]
        if now < deadline:
            return
        weight = 1 + (now - deadline) // self.period
        self._deadlines[cpu] = deadline + weight * self.period
        self._sample(cpu, now, weight)

    def _sample(self, cpu: int, now: int, weight: int) -> None:
        kernel = self.kernel
        task = kernel.sched.cpus[cpu].current
        frames = kernel.trace._stacks[cpu]
        # frame 0 is the implicit per-CPU root; user spans start at 1
        names = tuple(f[0] for f in frames[1:])
        cat = frames[-1][1] if len(frames) > 1 else None
        cminus = None
        for f in reversed(frames):
            if f[0].startswith("cminus:"):
                cminus = f[0][7:]
                break
        self.rings[cpu].append([
            cpu, now,
            task.pid if task is not None else None,
            task.name if task is not None else "(idle)",
            task.tenant if task is not None else "",
            names, cat, cminus, weight,
        ])
        self.sample_events += 1
        self.samples_taken += weight
        for name, fn in self._counters:
            self._counter_samples.append((now, cpu, name, int(fn())))

    def on_complete(self, cpu: int, name: str, cat: str, now: int,
                    dur: int) -> None:
        """Tracer hook: a retroactive span ``[now-dur, now]`` was just
        recorded on ``cpu``.  Relabel the tail samples that landed inside
        it — they were attributed to the enclosing open span at charge
        time, but the cycles belong to the completed quantum."""
        if dur <= 0:
            return
        t0 = now - dur
        for s in reversed(self.rings[cpu]):
            if s[S_TS] <= t0:
                break
            s[S_STACK] = s[S_STACK] + (name,)
            s[S_CAT] = cat

    # ------------------------------------------------------- counter tracks

    def add_counter(self, name: str, fn: Callable[[], int]) -> None:
        """Register a counter track sampled at every profile tick.  The
        callback must be a zero-cost read over existing state."""
        self._counters.append((name, fn))

    def counter_samples(self) -> list[tuple[int, int, str, int]]:
        """Collected counter points, oldest first: (ts, cpu, name, value)."""
        return list(self._counter_samples)

    # --------------------------------------------------- latency tracer hooks

    def _stack_at(self, cpu: int) -> tuple:
        return tuple(f[0] for f in self.kernel.trace._stacks[cpu][1:])

    def sched_wakeup(self, task, delay: int) -> None:
        """``sched_wakeup`` hook: ``task`` just went READY→RUNNING after
        ``delay`` cycles on the runqueue."""
        self.wakeup_delay.observe(delay)
        cpu = self.clock.cpu
        self.wakeup_max.offer(delay, self.clock.local_now(cpu), cpu,
                              task.pid, task.name, self._stack_at(cpu))

    def irq_disable(self, cpu: int, depth: int) -> None:
        """``irq_disable`` hook: an irqsoff section starts at 0→1."""
        if depth == 1:
            self._irq_off_since[cpu] = self.clock.local_now(cpu)

    def irq_enable(self, cpu: int, depth: int) -> None:
        """``irq_enable`` hook: the irqsoff section ends at 1→0."""
        start = self._irq_off_since[cpu]
        if depth or start is None:
            return
        self._irq_off_since[cpu] = None
        now = self.clock.local_now(cpu)
        dur = now - start
        self.irqsoff.observe(dur)
        task = self.kernel.sched.cpus[cpu].current
        self.irqsoff_max.offer(
            dur, now, cpu,
            task.pid if task is not None else None,
            task.name if task is not None else "(idle)",
            self._stack_at(cpu))

    def preempt_point(self, cpu: int, now: int) -> None:
        """``preempt_point`` hook: a preemption opportunity on ``cpu``.  The
        gap since the previous one is how long preemption was impossible."""
        last = self._last_preempt_point[cpu]
        self._last_preempt_point[cpu] = now
        if last is None:
            return
        dur = now - last
        self.preemptoff.observe(dur)
        task = self.kernel.sched.cpus[cpu].current
        self.preemptoff_max.offer(
            dur, now, cpu,
            task.pid if task is not None else None,
            task.name if task is not None else "(idle)",
            self._stack_at(cpu))

    def syscall(self, record) -> None:
        """``syscall`` hook: per-syscall latency, trap to return."""
        name = record.name
        h = self.syscall_lat.get(name)
        if h is None:
            h = self.syscall_lat[name] = Histogram(f"prof.syscall.{name}")
            self.syscall_nrs[name] = record.nr
        h.observe(record.duration_cycles)

    # -------------------------------------------------------------- queries

    def samples(self) -> list[list]:
        """Every retained sample, oldest first, all CPUs interleaved by
        ring order (sort by ``S_TS`` for a strict timeline)."""
        out: list[list] = []
        for ring in self.rings:
            out.extend(ring)
        return out

    def folded(self, *, by_task: bool = True) -> dict[str, int]:
        """Folded-stack form: ``frame;frame;... -> weighted samples``.
        The first frame is the task name (flamegraph convention) unless
        ``by_task=False``; sample-time stacks with no open span fold to
        ``(untraced)``."""
        out: dict[str, int] = {}
        for s in self.samples():
            frames = list(s[S_STACK]) or [UNTRACED_FRAME]
            if by_task:
                frames.insert(0, s[S_TASK])
            key = ";".join(frames)
            out[key] = out.get(key, 0) + s[S_WEIGHT]
        return out

    def write_folded(self, path) -> None:
        """Serialize :meth:`folded` in the classic one-line-per-stack
        format every flamegraph toolchain reads."""
        from pathlib import Path
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        lines = [f"{stack} {n}" for stack, n in
                 sorted(self.folded().items())]
        p.write_text("\n".join(lines) + "\n")

    def named_fraction(self) -> float:
        """Share of weighted samples attributed to at least one named
        span (the acceptance gate: ≥0.95 on a traced serving bench)."""
        total = named = 0
        for s in self.samples():
            total += s[S_WEIGHT]
            if s[S_STACK]:
                named += s[S_WEIGHT]
        return named / total if total else 0.0

    def category_shares(self) -> dict[str, float]:
        """Weighted sample share per leaf category; comparable to
        ``Attribution.by_category`` self-cycle shares on the same run."""
        counts: dict[str, int] = {}
        total = 0
        for s in self.samples():
            cat = s[S_CAT] if s[S_CAT] is not None else UNTRACED_FRAME
            counts[cat] = counts.get(cat, 0) + s[S_WEIGHT]
            total += s[S_WEIGHT]
        if not total:
            return {}
        return {cat: n / total for cat, n in sorted(counts.items())}

    def to_dict(self) -> dict:
        """JSON-ready summary (benchmarks embed this next to attribution)."""
        from repro.analysis.slo import latency_summary
        return {
            "period_cycles": self.period,
            "samples": self.samples_taken,
            "sample_events": self.sample_events,
            "named_fraction": round(self.named_fraction(), 6),
            "category_shares": {k: round(v, 6) for k, v in
                                self.category_shares().items()},
            "wakeup_delay": latency_summary(self.wakeup_delay),
            "wakeup_max": self.wakeup_max.to_dict(),
            "irqsoff": latency_summary(self.irqsoff),
            "irqsoff_max": self.irqsoff_max.to_dict(),
            "preemptoff": latency_summary(self.preemptoff),
            "preemptoff_max": self.preemptoff_max.to_dict(),
            "syscalls": {
                name: dict(latency_summary(h), nr=self.syscall_nrs[name])
                for name, h in sorted(self.syscall_lat.items())},
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Profiler(period={self.period}, enabled={self.enabled}, "
                f"samples={self.samples_taken})")
