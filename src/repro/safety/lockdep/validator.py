"""The lock dependency validator (Linux lockdep, scaled to the simulator).

The §3.3 monitors already watch the lock/unlock event stream for *local*
invariants (no recursion, balanced release).  This validator checks the
*global* ones the upcoming SMP work depends on:

* **lock ordering** — a persistent dependency edge ``A -> B`` is recorded
  the first time an instance of class B is acquired while an instance of
  class A is held; inserting an edge that closes a cycle is a potential
  AB-BA deadlock, reported with both acquisition chains even though the
  single-CPU simulation never actually deadlocks;
* **IRQ safety** — lock classes are classified irq-safe (acquired inside
  hardirq/softirq handlers) or irq-unsafe (held with interrupts enabled);
  a class that is both, or an irq-safe class that depends on an
  irq-unsafe one, inverts the moment interrupts become asynchronous;
* **sleep-in-atomic** — blocking (wait-queue sleep, semaphore down) while
  holding a spinlock, inside an interrupt handler, or with interrupts
  disabled.

Cost discipline is inherited from the tracer: the validator only ever
*reads* the clock, so the simulated cycle counts are bit-identical with
lockdep on or off (asserted in ``tests/safety/test_lockdep.py``).
Enable with ``Kernel(lockdep=True)`` or run-wide with ``REPRO_LOCKDEP=1``
(strict: the first violation raises :class:`LockdepError`).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro.safety.lockdep.classes import (CTX_HARDIRQ, CTX_NAMES, CTX_PROCESS,
                                          CTX_SOFTIRQ, ENABLED_IRQ, KIND_SPIN,
                                          USED_IN_HARDIRQ, USED_IN_SOFTIRQ,
                                          DepEdge, HeldLock, LockClass)
from repro.safety.lockdep.report import (DEADLOCK, IRQ_INVERSION,
                                         IRQ_UNSAFE_DEP, RECURSION,
                                         RELEASE_NOT_HELD, RELEASE_ORDER,
                                         SLEEP_IN_ATOMIC, LockdepError,
                                         LockdepReport)

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel

#: environment knobs (read by Kernel at boot)
ENV_LOCKDEP = "REPRO_LOCKDEP"
ENV_LOCKDEP_OUT = "REPRO_LOCKDEP_OUT"

_USAGE_LABEL = {USED_IN_HARDIRQ: "hardirq", USED_IN_SOFTIRQ: "softirq"}

#: kernel hook points the validator subscribes to, one method each
HOOK_POINTS = ("lock_acquire", "lock_release", "might_sleep", "irq_disable",
               "irq_enable", "hardirq_enter", "hardirq_exit",
               "softirq_enter", "softirq_exit")


class LockdepValidator:
    """Kernel-wide lock-order / irq-safety / atomicity validator.

    One per kernel (``kernel.lockdep``), or ``None`` when validation is
    off; the constructor subscribes it to the kernel hook points in
    :data:`HOOK_POINTS` (:mod:`repro.kernel.hooks`).
    """

    def __init__(self, kernel: "Kernel", *, strict: bool = False):
        self.kernel = kernel
        self.strict = strict
        self.classes: dict[str, LockClass] = {}
        #: per-task held-lock stacks, keyed by pid (0 = boot/idle)
        self.held: dict[int, list[HeldLock]] = {}
        #: forward dependency edges: src class -> {dst class: first witness}
        self.forward: dict[str, dict[str, DepEdge]] = {}
        self.backward: dict[str, set[str]] = {}
        self.reports: list[LockdepReport] = []
        self._reported: set = set()      # dedup keys, one report per cause
        # interrupt state (single CPU: one global view)
        self.hardirq_depth = 0
        self.softirq_depth = 0
        self.irqoff_depth = 0
        # statistics
        self.acquisitions = 0
        self.max_held = 0
        metrics = kernel.metrics
        self._violations = metrics.counter(
            "lockdep.violations", help="lockdep violation reports")
        metrics.gauge("lockdep.classes", fn=lambda: len(self.classes),
                      help="lock classes registered")
        metrics.gauge("lockdep.dependencies", fn=self.edge_count,
                      help="distinct dependency edges recorded")
        metrics.gauge("lockdep.acquisitions", fn=lambda: self.acquisitions,
                      help="acquisitions validated")
        metrics.gauge("lockdep.held_max", fn=lambda: self.max_held,
                      help="deepest held-lock stack observed")
        for point in HOOK_POINTS:
            kernel.hooks.attach(point, getattr(self, point))

    # ----------------------------------------------------------- wiring

    def _current(self):
        sched = getattr(self.kernel, "sched", None)   # None during boot
        return sched.current if sched is not None else None

    def _task_label(self) -> str:
        task = self._current()
        return f"{task.name}/{task.pid}" if task is not None else "boot/0"

    def _stack(self) -> list[HeldLock]:
        task = self._current()
        pid = task.pid if task is not None else 0
        stack = self.held.get(pid)
        if stack is None:
            stack = self.held[pid] = []
        return stack

    def _ctx(self) -> int:
        if self.hardirq_depth:
            return CTX_HARDIRQ
        if self.softirq_depth:
            return CTX_SOFTIRQ
        return CTX_PROCESS

    def _class(self, name: str, kind: str) -> LockClass:
        cls = self.classes.get(name)
        if cls is None:
            cls = self.classes[name] = LockClass(name, kind)
        return cls

    def edge_count(self) -> int:
        return sum(len(d) for d in self.forward.values())

    def dependency_graph(self) -> dict[str, set[str]]:
        """{src class: set of dst classes} — the recorded order graph."""
        return {src: set(dsts) for src, dsts in self.forward.items()}

    def has_edge(self, src: str, dst: str) -> bool:
        return dst in self.forward.get(src, ())

    def reports_of(self, kind: str) -> list[LockdepReport]:
        return [r for r in self.reports if r.kind == kind]

    # ---------------------------------------------------- context tracking

    def hardirq_enter(self) -> None:
        self.hardirq_depth += 1

    def hardirq_exit(self) -> None:
        self.hardirq_depth -= 1

    def softirq_enter(self) -> None:
        self.softirq_depth += 1

    def softirq_exit(self) -> None:
        self.softirq_depth -= 1

    def irq_disable(self, cpu: int, depth: int) -> None:
        self.irqoff_depth += 1

    def irq_enable(self, cpu: int, depth: int) -> None:
        self.irqoff_depth -= 1

    # --------------------------------------------------------- acquisition

    def lock_acquire(self, lock, kind: str, site: str, subclass: int = 0) -> None:
        """Validate one acquisition and push it on the holder's stack."""
        name = lock.name if not subclass else f"{lock.name}/{subclass}"
        cls = self._class(name, kind)
        cls.acquisitions += 1
        cls.instances.add(id(lock))
        cls.sites[site] += 1
        self.acquisitions += 1
        ctx = self._ctx()
        stack = self._stack()
        task = self._task_label()

        if kind == KIND_SPIN:
            self._mark_usage(cls, ctx, site, task)
        else:
            # Sleeping locks may block on acquisition, contended or not —
            # the same might_sleep() a real down()/mutex_lock() performs.
            self.might_sleep(site, what=f"acquiring sleeping lock "
                                        f"'{name}'")

        # Recursion: the same class already held by this task (instance
        # recursion is caught by the lock itself; class recursion is the
        # AB-BA-with-yourself case lockdep adds).
        for h in stack:
            if h.cls is cls:
                self._report(LockdepReport(
                    RECURSION,
                    f"trying to acquire ({name}) at {site}, already held",
                    self.kernel.clock.now, task,
                    this_chain=[x.describe() for x in stack] +
                               [f"({name}) at {site}  <- AGAIN"],
                ), key=(RECURSION, name))
                break

        # Dependencies: new class is ordered after every distinct class
        # this task already holds in the same interrupt context (chains
        # are split at context boundaries, as in Linux).
        for h in stack:
            if h.irq_ctx == ctx and h.cls is not cls:
                self._add_edge(h, cls, site, task, stack)

        stack.append(HeldLock(cls, id(lock), site,
                              self.kernel.clock.now, ctx, task))
        if len(stack) > self.max_held:
            self.max_held = len(stack)

    def lock_release(self, lock, kind: str, site: str, subclass: int = 0) -> None:
        """Pop an acquisition; spinlocks must release in LIFO order."""
        name = lock.name if not subclass else f"{lock.name}/{subclass}"
        stack = self._stack()
        idx = None
        for i in range(len(stack) - 1, -1, -1):
            if stack[i].obj_id == id(lock) and stack[i].cls.name == name:
                idx = i
                break
        if idx is None:
            # Semaphores are legitimately released by a different task
            # (signalling); remove silently from whichever stack holds it.
            for pid, other in self.held.items():
                for i in range(len(other) - 1, -1, -1):
                    if other[i].obj_id == id(lock) \
                            and other[i].cls.name == name:
                        if kind == KIND_SPIN:
                            self._report(LockdepReport(
                                RELEASE_NOT_HELD,
                                f"releasing ({name}) at {site}, held by "
                                f"{other[i].task} not {self._task_label()}",
                                self.kernel.clock.now, self._task_label(),
                                this_chain=[other[i].describe()],
                            ), key=(RELEASE_NOT_HELD, name))
                        del other[i]
                        return
            return  # up() on a never-downed counting semaphore: fine
        if kind == KIND_SPIN and idx != len(stack) - 1:
            above = [h for h in stack[idx + 1:]]
            self._report(LockdepReport(
                RELEASE_ORDER,
                f"releasing ({name}) at {site} while "
                f"{', '.join('(' + h.cls.name + ')' for h in above)} "
                f"acquired later {'is' if len(above) == 1 else 'are'} "
                f"still held",
                self.kernel.clock.now, self._task_label(),
                this_chain=[h.describe() for h in stack],
            ), key=(RELEASE_ORDER, name,
                    tuple(h.cls.name for h in above)))
        del stack[idx]

    # ----------------------------------------------------------- blocking

    def might_sleep(self, site: str, what: str = "blocking") -> None:
        """The might_sleep() check: called at every point that may block
        (wait-queue sleep, semaphore down) regardless of contention."""
        ctx = self._ctx()
        task = self._task_label()
        stack = self._stack()
        spins = [h for h in stack if h.cls.kind == KIND_SPIN]
        if ctx != CTX_PROCESS:
            self._report(LockdepReport(
                SLEEP_IN_ATOMIC,
                f"{what} at {site} in {CTX_NAMES[ctx]} context",
                self.kernel.clock.now, task,
                this_chain=[h.describe() for h in stack],
            ), key=(SLEEP_IN_ATOMIC, site, CTX_NAMES[ctx]))
        elif self.irqoff_depth:
            self._report(LockdepReport(
                SLEEP_IN_ATOMIC,
                f"{what} at {site} with interrupts disabled",
                self.kernel.clock.now, task,
                this_chain=[h.describe() for h in stack],
            ), key=(SLEEP_IN_ATOMIC, site, "irqs-off"))
        elif spins:
            self._report(LockdepReport(
                SLEEP_IN_ATOMIC,
                f"{what} at {site} while holding "
                f"{', '.join('(' + h.cls.name + ')' for h in spins)}",
                self.kernel.clock.now, task,
                this_chain=[h.describe() for h in stack],
            ), key=(SLEEP_IN_ATOMIC, site,
                    tuple(h.cls.name for h in spins)))

    # --------------------------------------------------------- usage rules

    def _mark_usage(self, cls: LockClass, ctx: int, site: str,
                    task: str) -> None:
        if ctx == CTX_HARDIRQ:
            bit = USED_IN_HARDIRQ
        elif ctx == CTX_SOFTIRQ and self.irqoff_depth == 0:
            # softirq entry with hardirqs disabled (irqsave callers) is
            # indistinguishable from hardirq protection; only count the
            # interruptible softirq usage.
            bit = USED_IN_SOFTIRQ
        elif ctx == CTX_PROCESS and self.irqoff_depth == 0:
            bit = ENABLED_IRQ
        else:
            return
        if cls.usage & bit:
            return
        cls.usage |= bit
        cls.usage_sites[bit] = (site, task, self.kernel.clock.now)
        if cls.irq_safe and cls.irq_unsafe:
            chain = []
            for b, (s, t, cyc) in sorted(cls.usage_sites.items()):
                label = {USED_IN_HARDIRQ: "IN-HARDIRQ",
                         USED_IN_SOFTIRQ: "IN-SOFTIRQ",
                         ENABLED_IRQ: "IRQS-ON"}[b]
                chain.append(f"({cls.name}) {label} at {s}, by {t}, "
                             f"cycle {cyc}")
            self._report(LockdepReport(
                IRQ_INVERSION,
                f"({cls.name}) is acquired both inside interrupt handlers "
                f"and with interrupts enabled",
                self.kernel.clock.now, task, this_chain=chain,
            ), key=(IRQ_INVERSION, cls.name))
        # The class's irq-safety just changed: re-validate recorded edges.
        if bit in (USED_IN_HARDIRQ, USED_IN_SOFTIRQ):
            for unsafe in self._reachable(cls.name):
                dst = self.classes[unsafe]
                if dst.irq_unsafe and dst is not cls:
                    self._report_irq_dep(cls, dst, task)
        elif bit == ENABLED_IRQ:
            for ancestor in self._reaching(cls.name):
                src = self.classes[ancestor]
                if src.irq_safe and src is not cls:
                    self._report_irq_dep(src, cls, task)

    def _report_irq_dep(self, safe: LockClass, unsafe: LockClass,
                        task: str) -> None:
        path = self._find_path(safe.name, unsafe.name)
        chain = [self.forward[a][b].describe()
                 for a, b in zip(path, path[1:])] if path else []
        safe_bit = USED_IN_HARDIRQ if safe.usage & USED_IN_HARDIRQ \
            else USED_IN_SOFTIRQ
        s_site, s_task, s_cyc = safe.usage_sites.get(
            safe_bit, ("?", "?", 0))
        u_site, u_task, u_cyc = unsafe.usage_sites.get(
            ENABLED_IRQ, ("?", "?", 0))
        self._report(LockdepReport(
            IRQ_UNSAFE_DEP,
            f"({safe.name}) [{_USAGE_LABEL[safe_bit]}-safe, taken at "
            f"{s_site}] depends on ({unsafe.name}) [irq-unsafe, held with "
            f"irqs on at {u_site}]",
            self.kernel.clock.now, task,
            this_chain=[f"({safe.name}) used in {_USAGE_LABEL[safe_bit]} "
                        f"at {s_site}, by {s_task}, cycle {s_cyc}",
                        f"({unsafe.name}) held with irqs enabled at "
                        f"{u_site}, by {u_task}, cycle {u_cyc}"],
            recorded_chain=chain,
        ), key=(IRQ_UNSAFE_DEP, safe.name, unsafe.name))

    # ------------------------------------------------------- order rules

    def _add_edge(self, held: HeldLock, cls: LockClass, site: str,
                  task: str, stack: list[HeldLock]) -> None:
        src, dst = held.cls, cls
        if dst.name in self.forward.get(src.name, ()):
            return
        # Would this edge close a cycle?  Check before inserting so the
        # report can show the already-recorded opposite-direction path.
        path = self._find_path(dst.name, src.name)
        if path is not None:
            recorded = [self.forward[a][b].describe()
                        for a, b in zip(path, path[1:])]
            self._report(LockdepReport(
                DEADLOCK,
                f"trying to acquire ({dst.name}) at {site} while holding "
                f"({src.name}), but ({src.name}) is already reachable "
                f"from ({dst.name})",
                self.kernel.clock.now, task,
                this_chain=[h.describe() for h in stack] +
                           [f"({dst.name}) at {site}  <- NEW"],
                recorded_chain=recorded,
                notes=[f"cycle: {' -> '.join(path)} -> {dst.name}"],
            ), key=(DEADLOCK, frozenset((src.name, dst.name))))
        edge = DepEdge(src.name, dst.name, held.site, site, task,
                       self.kernel.clock.now)
        self.forward.setdefault(src.name, {})[dst.name] = edge
        self.backward.setdefault(dst.name, set()).add(src.name)
        if src.kind == KIND_SPIN and dst.kind == KIND_SPIN \
                and src.irq_safe and dst.irq_unsafe:
            self._report_irq_dep(src, dst, task)

    def _find_path(self, src: str, dst: str) -> list[str] | None:
        """BFS over forward edges; returns [src, ..., dst] or None."""
        if src == dst:
            return [src]
        parent: dict[str, str] = {src: src}
        frontier = [src]
        while frontier:
            nxt: list[str] = []
            for node in frontier:
                for child in self.forward.get(node, ()):
                    if child in parent:
                        continue
                    parent[child] = node
                    if child == dst:
                        path = [dst]
                        while path[-1] != src:
                            path.append(parent[path[-1]])
                        path.reverse()
                        return path
                    nxt.append(child)
            frontier = nxt
        return None

    def _reachable(self, src: str) -> list[str]:
        """All classes reachable from ``src`` via forward edges."""
        seen: set[str] = set()
        frontier = [src]
        while frontier:
            node = frontier.pop()
            for child in self.forward.get(node, ()):
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        return list(seen)

    def _reaching(self, dst: str) -> list[str]:
        """All classes from which ``dst`` is reachable (backward edges)."""
        seen: set[str] = set()
        frontier = [dst]
        while frontier:
            node = frontier.pop()
            for parent in self.backward.get(node, ()):
                if parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
        return list(seen)

    # ----------------------------------------------------------- reporting

    def _report(self, report: LockdepReport, key) -> None:
        if key in self._reported:
            return
        self._reported.add(key)
        self.reports.append(report)
        self._violations.inc()
        tracer = self.kernel.trace
        if tracer.enabled:
            tracer.instant(f"lockdep:{report.kind}", "lockdep",
                           headline=report.headline, task=report.task)
        out_dir = os.environ.get(ENV_LOCKDEP_OUT)
        if out_dir:
            try:
                os.makedirs(out_dir, exist_ok=True)
                path = os.path.join(
                    out_dir, f"lockdep-{len(self.reports):04d}-"
                             f"{report.kind}.txt")
                with open(path, "w") as fh:
                    fh.write(report.render() + "\n")
            except OSError:  # pragma: no cover - artifact dir unwritable
                pass
        if self.strict:
            raise LockdepError(report)

    def render(self) -> str:
        """Summary table + all violation reports (repro.analysis uses it)."""
        lines = ["== lockdep =="]
        lines.append(f"  classes: {len(self.classes)}, dependencies: "
                     f"{self.edge_count()}, acquisitions: "
                     f"{self.acquisitions}, max held: {self.max_held}, "
                     f"violations: {len(self.reports)}")
        for name in sorted(self.classes):
            cls = self.classes[name]
            lines.append(
                f"  {name:<24} {cls.kind:<5} {cls.usage_str():<24} "
                f"{cls.acquisitions:>8} hits, "
                f"{len(cls.instances)} instance(s)")
        for report in self.reports:
            lines.append("")
            lines.append(report.render())
        return "\n".join(lines)
