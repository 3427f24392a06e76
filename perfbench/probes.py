"""Measurement from outside the program: spans, call counts, host samples.

Nothing in ``src/`` knows about these probes.  :class:`Probes` replaces
chosen functions on the program's classes with wrappers for one
repetition and puts the originals back afterwards:

* **spans** at layer entry points (syscall dispatch, epoll collect, NIC
  transmit/kick, Cosy compounds, compiled C-minus calls, path walks,
  uring submit/harvest, serving waves) record ``(name, op, start, end,
  parent)`` in memory; spans of one op share its id (the wave or event
  index);
* **counts** at hot leaves that run about 10⁶ times a run
  (``Clock.charge``, spinlocks, IRQ toggles, ``Kernel.current``) — too
  cheap to time without distorting them, so only counted.

:class:`HostSampler` gives the hot leaves' host share instead: a
``SIGPROF`` timer on process CPU time, each sample keyed by the layer of
the innermost ``repro`` frame on the interrupted stack.
"""

from __future__ import annotations

import signal
from collections import Counter
from time import perf_counter_ns

from repro.cminus.compile import CompiledEngine
from repro.core.cosy.kernel_ext import CosyKernelExtension
from repro.kernel.clock import Clock
from repro.kernel.core import Kernel
from repro.kernel.interrupts import IrqController
from repro.kernel.locks import SpinLock
from repro.kernel.net.epoll import EpollInode
from repro.kernel.net.nic import Nic
from repro.kernel.net.syscalls import SocketLayer
from repro.kernel.sched import Scheduler
from repro.kernel.segments import SegmentedView
from repro.kernel.syscalls.interface import SyscallInterface
from repro.kernel.uring.layer import UringLayer
from repro.kernel.uring.queue import UringQueue
from repro.kernel.vfs.namei import VFS
from repro.workloads import httpserver, scenario

#: frames whose presence on the stack marks the server side of a request
#: (everything else in the timed phase is client driving and digesting)
SERVING_FRAMES = frozenset({"serve_wave", "pump", "serve_one", "_run_batch"})

#: the benchmark's own modules: host samples taken in them (calibration,
#: measurement hooks) are the benchmark's cost, not a layer's
BENCH_MODULES = frozenset({"__main__", "probes", "runs", "stats", "suite"})

#: layer each span name prefix belongs to
SPAN_LAYERS = {
    "syscall": "kernel.syscalls",
    "net": "kernel.net",
    "nic": "kernel.net.nic",
    "cosy": "core.cosy",
    "cminus": "cminus",
    "vfs": "kernel.vfs",
    "uring": "kernel.uring",
    "serve": "workloads",
    "event": "workloads",
}

_SERVER_CLASSES = (httpserver.SelectHttpServer, httpserver.EpollHttpServer,
                   httpserver.CosyHttpServer, httpserver.UringHttpServer)
_SCENARIO_SERVERS = (scenario.ScenarioSelectServer,
                     scenario.ScenarioEpollServer,
                     scenario.ScenarioUringServer)


def layer_of_module(module: str) -> str | None:
    """``repro.kernel.net.epoll`` → ``kernel.net``; None outside repro.

    Kernel, core and safety modules key by subpackage; the profiler is
    split from the rest of ``repro.trace`` so each observer has a row.
    """
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    top = parts[1]
    if top in ("kernel", "core", "safety") and len(parts) > 2:
        return f"{top}.{parts[2]}"
    if top == "trace" and len(parts) > 2 and parts[2] == "prof":
        return "trace.prof"
    return top


def layer_of_span(name: str) -> str | None:
    return SPAN_LAYERS.get(name.split(":", 1)[0])


class Patcher:
    """Replaces class or module attributes and restores them, LIFO."""

    def __init__(self) -> None:
        self._saved: list = []

    def replace(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(original)``."""
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


class Probes(Patcher):
    """Span and count wrappers on the program's classes, for one rep."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: list = []
        self._stack: list[int] = []
        #: id shared by the spans of one op (wave or event index)
        self.op = 0
        self.counts: Counter = Counter()
        #: EpollInode.collect: interest entries visited and ready found
        self.epoll_scanned = 0
        self.epoll_ready = 0
        self.epoll_scan_max = 0
        #: every spinlock acquired, to sum contention over the timed phase
        self.locks: dict[int, SpinLock] = {}
        self._contention0 = 0
        #: what the timed phase recorded, set by :meth:`end`
        self.timed: dict = {}

    def begin(self) -> None:
        """Start of the timed phase: drop what set-up recorded."""
        self.spans.clear()
        self._stack.clear()
        self.op = 0
        self.counts.clear()
        self.epoll_scanned = self.epoll_ready = self.epoll_scan_max = 0
        self._contention0 = self.contention_cycles()

    def end(self) -> None:
        """End of the timed phase: freeze what it recorded (the wrappers
        stay installed while the outputs are checked)."""
        self.timed = {
            "spans": list(self.spans), "counts": Counter(self.counts),
            "epoll": (self.epoll_scanned, self.epoll_ready,
                      self.epoll_scan_max),
            "contention_cycles": self.contention_cycles() - self._contention0,
        }

    def contention_cycles(self) -> int:
        return sum(lock.contention_cycles for lock in self.locks.values())

    def install(self) -> None:
        span = self._span
        self.replace(SyscallInterface, "_dispatch", self._dispatch_span)
        self.replace(EpollInode, "collect", self._collect_span)
        self.replace(Nic, "transmit", span("nic:transmit"))
        self.replace(Nic, "kick", span("nic:kick"))
        for attr in sorted(SocketLayer.__dict__):
            if attr.startswith("do_"):
                self.replace(SocketLayer, attr, span(f"net:{attr[3:]}"))
        self.replace(CosyKernelExtension, "_execute_in_kernel",
                      span("cosy:compound"))
        self.replace(CompiledEngine, "call", span("cminus:call"))
        self.replace(VFS, "path_walk", span("vfs:path_walk"))
        for attr in ("submit", "harvest", "enter"):
            self.replace(UringQueue, attr, span(f"uring:{attr}"))
        self.replace(UringLayer, "do_uring_enter", span("uring:do_enter"))
        self.replace(UringLayer, "sqpoll_run", span("uring:sqpoll"))
        for cls in _SERVER_CLASSES:
            self.replace(cls, "serve_wave", self._wave_span)
        for cls in _SCENARIO_SERVERS:
            self.replace(cls, "pump", span("serve:pump"))
        self.replace(scenario.ScenarioCosyServer, "serve_one",
                      span("serve:one"))

        count = self._count
        self.replace(Clock, "charge", count("clock.charges"))
        self.replace(Clock, "charge_system", count("clock.charges"))
        self.replace(SpinLock, "lock", self._lock_count)
        # one per disable/enable pair, as lock acquires count lock/unlock
        self.replace(IrqController, "local_irq_disable", count("irq.toggles"))
        self.replace(Scheduler, "maybe_preempt", count("sched.preempt_checks"))
        for attr in ("read", "read_int", "write"):
            self.replace(SegmentedView, attr, count("segments.accesses"))
        counts = self.counts

        def make_current(prop):
            getter = prop.fget

            def current(kernel):
                counts["core.current_lookups"] += 1
                return getter(kernel)
            return property(current)
        self.replace(Kernel, "current", make_current)

    # ------------------------------------------------------------ wrappers

    def _record(self, name: str, fn, args, kwargs):
        stack = self._stack
        idx = len(self.spans)
        parent = stack[-1] if stack else -1
        self.spans.append(None)
        stack.append(idx)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            stack.pop()
            self.spans[idx] = (name, self.op, t0, t1, parent)

    def _span(self, name: str):
        def make(fn):
            def wrapped(*args, **kwargs):
                return self._record(name, fn, args, kwargs)
            return wrapped
        return make

    def _dispatch_span(self, fn):
        def wrapped(sysif, name, *args, **kwargs):
            return self._record("syscall:" + name, fn,
                                (sysif, name) + args, kwargs)
        return wrapped

    def _wave_span(self, fn):
        def wrapped(*args, **kwargs):
            try:
                return self._record("serve:wave", fn, args, kwargs)
            finally:
                self.op += 1
        return wrapped

    def _collect_span(self, fn):
        def wrapped(ep, resolve, maxevents):
            n = len(ep._order)
            start = ep._cursor % n if n else 0
            found = self._record("net:epoll_collect", fn,
                                 (ep, resolve, maxevents), {})
            # collect stops at the entry that filled maxevents, so the
            # fairness cursor tells how far this scan got
            if found and len(found) >= maxevents:
                scanned = (ep._cursor - 1 - start) % n + 1
            else:
                scanned = n
            self.epoll_scanned += scanned
            self.epoll_ready += len(found)
            self.epoll_scan_max = max(self.epoll_scan_max, scanned)
            return found
        return wrapped

    def _count(self, key: str):
        counts = self.counts

        def make(fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped
        return make

    def _lock_count(self, fn):
        counts = self.counts
        locks = self.locks

        def wrapped(lock, *args, **kwargs):
            counts["locks.acquires"] += 1
            locks[id(lock)] = lock
            return fn(lock, *args, **kwargs)
        return wrapped

    def schedule(self, events):
        """Iterate a scenario schedule, one span per event: ``run()`` takes
        any iterable, so each event becomes an op without touching the
        runner."""
        for i, ev in enumerate(events):
            self.op = i
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            t0 = perf_counter_ns()
            yield ev
            t1 = perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = ("event:" + ev.kind, i, t0, t1, -1)


class HostSampler:
    """``ITIMER_PROF`` host stack sampler keyed by ``repro`` layer."""

    def __init__(self, interval_s: float = 0.0005) -> None:
        self.interval_s = interval_s
        #: (layer of the innermost repro or benchmark frame, or "other";
        #: serving?) -> samples
        self.samples: Counter = Counter()
        self._old = None

    def _on_sample(self, _signum, frame) -> None:
        layer = None
        serving = False
        f = frame
        while f is not None:
            if layer is None:
                module = f.f_globals.get("__name__", "")
                layer = ("bench" if module in BENCH_MODULES
                         else layer_of_module(module))
            if f.f_code.co_name in SERVING_FRAMES:
                serving = True
                if layer is not None:
                    break
            f = f.f_back
        self.samples[(layer or "other", serving)] += 1

    def start(self) -> None:
        self._old = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._old)

    @property
    def total(self) -> int:
        return sum(self.samples.values())

    def share(self, layer: str | None = None, *, serving=None) -> float:
        """Share of samples in ``layer`` (None: any), optionally only
        those taken in (True) or out of (False) a serving call."""
        total = self.total
        if not total:
            return 0.0
        n = sum(c for (lay, srv), c in self.samples.items()
                if layer in (None, lay) and serving in (None, srv))
        return n / total
