"""Spinlocks and semaphores, instrumentable via the kernel event hook.

The simulation is cooperative, so locks never truly spin in Python; what
matters for the paper is (a) their acquisition *cost* — including genuine
cross-CPU contention on SMP kernels, where overlapping hold intervals on
the per-CPU wall clocks charge bounded spin cycles (docs/SMP.md) — (b)
their *hit counts* (§3.3 reports dcache_lock at ~8,805 hits/second under
PostMark), and (c) the lock/unlock *event stream* the monitors check
invariants over.

Each lock takes the owning kernel's ``log_event`` hook so that when an event
dispatcher is attached (§3.3) every acquire/release is observable, and when
none is attached the hook costs nothing — matching "vanilla" vs
"instrumented" kernels in the evaluation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import InvariantViolation

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel

# Event type codes shared with the monitor package.
EV_LOCK = 1
EV_UNLOCK = 2
EV_SEM_DOWN = 3
EV_SEM_UP = 4
EV_REF_INC = 5
EV_REF_DEC = 6
EV_IRQ_DISABLE = 7
EV_IRQ_ENABLE = 8


class SpinLock:
    """A kernel spinlock with acquisition accounting and event emission.

    On an SMP kernel (``kernel.ncpus > 1``) acquisitions can be genuinely
    *cross-CPU contended*: the lock remembers which CPU last released it
    and at what local time; when a different CPU whose local clock is
    still *behind* that release acquires the lock, the two hold intervals
    overlap on the simulated wall clock and the acquirer spins.  The spin
    charge is ``min(overlap, last hold, costs.spinlock_contend_cap)`` —
    bounded by the owner's actual critical-section length (a spinner never
    waits longer than the lock was held) and by a backoff/fairness cap, so
    contention costs cycles without serializing the CPUs' local clocks.  Contended cycles accumulate in
    :attr:`contention_cycles` (surfaced to lockprof via the monitor event
    ``value`` field).

    ``charge=False`` builds an accounting-free lock (used for per-CPU
    runqueue locks whose cost is priced into ``context_switch``): it
    still tracks holders and reports to lockdep, but never touches the
    clock and never contends.
    """

    def __init__(self, kernel: "Kernel", name: str, *,
                 instrumented: bool = False, charge: bool = True):
        self.kernel = kernel
        self.name = name
        self.instrumented = instrumented or kernel.instrument_all_locks
        self.charged = charge
        self.held = False
        self.holder_pid: int | None = None
        self.acquisitions = 0
        self.contentions = 0
        self.contention_cycles = 0
        self._acquired_local = 0
        self._last_unlock_cpu: int | None = None
        self._last_unlock_local = 0
        self._last_hold_cycles = 0

    @property
    def value(self) -> int:
        """Monitor-event payload: cumulative contended cycles, letting a
        dispatcher callback (lockprof) separate contended acquisitions
        from the uncontended fast path."""
        return self.contention_cycles

    def lock(self, site: str = "?", *, subclass: int = 0) -> None:
        if self.held:
            # One execution context: re-acquiring a held spinlock is a
            # self-deadlock (cross-CPU holds never overlap an acquisition
            # in the cooperative simulation — overlap is modeled below).
            raise InvariantViolation(
                "spinlock-no-recursion",
                f"'{self.name}' re-acquired while held (at {site})",
            )
        for fn in self.kernel.hooks.lock_acquire:
            fn(self, "spin", site, subclass)
        clock = self.kernel.clock
        if self.charged:
            if self.kernel.faults.should_fail(
                    "lock.acquire", self.name) is not None:
                # Injected contention: another CPU "held" the lock, so this
                # acquisition spins for a schedule-away-and-back round trip.
                self.contentions += 1
                spin = 2 * self.kernel.costs.context_switch
                self.contention_cycles += spin
                clock.charge(spin)
                tracer = self.kernel.trace
                if tracer.enabled:
                    tracer.complete("lock:contention", "lock", spin,
                                    lock=self.name, site=site)
            if self.kernel.ncpus > 1 and \
                    self._last_unlock_cpu is not None and \
                    self._last_unlock_cpu != clock.cpu:
                # Cross-CPU contention: the previous holder ran on another
                # CPU and, on the wall clock, had not yet released the lock
                # when this CPU reached the acquisition.  A spinner waits
                # for the *remaining hold*, which is at most the owner's
                # whole critical section — not the raw clock skew between
                # the CPUs, which can be arbitrarily large in the
                # cooperative schedule.
                wait = self._last_unlock_local - clock.local_now()
                if wait > 0:
                    hold = max(self._last_hold_cycles,
                               self.kernel.costs.spinlock_pair)
                    spin = min(wait, hold,
                               self.kernel.costs.spinlock_contend_cap)
                    self.contentions += 1
                    self.contention_cycles += spin
                    clock.charge(spin)
                    tracer = self.kernel.trace
                    if tracer.enabled:
                        tracer.complete(
                            "lock:contention", "lock", spin, lock=self.name,
                            site=site, cpu=clock.cpu,
                            holder_cpu=self._last_unlock_cpu)
            clock.charge(self.kernel.costs.spinlock_pair // 2)
        self.held = True
        self.holder_pid = self.kernel.current.pid if self.kernel.current else None
        self.acquisitions += 1
        self._acquired_local = clock.local_now()
        if self.instrumented:
            self.kernel.log_event(self, EV_LOCK, site)

    def unlock(self, site: str = "?", *, subclass: int = 0) -> None:
        if not self.held:
            raise InvariantViolation(
                "spinlock-balanced",
                f"'{self.name}' released while not held (at {site})",
            )
        for fn in self.kernel.hooks.lock_release:
            fn(self, "spin", site, subclass)
        clock = self.kernel.clock
        if self.charged:
            clock.charge(self.kernel.costs.spinlock_pair -
                         self.kernel.costs.spinlock_pair // 2)
            if self.kernel.ncpus > 1:
                self._last_unlock_cpu = clock.cpu
                self._last_unlock_local = clock.local_now()
                self._last_hold_cycles = max(
                    0, self._last_unlock_local - self._acquired_local)
        self.held = False
        self.holder_pid = None
        if self.instrumented:
            self.kernel.log_event(self, EV_UNLOCK, site)

    class _Guard:
        def __init__(self, lk: "SpinLock", site: str, subclass: int = 0):
            self._lk, self._site, self._sub = lk, site, subclass

        def __enter__(self):
            self._lk.lock(self._site, subclass=self._sub)
            return self._lk

        def __exit__(self, *exc):
            self._lk.unlock(self._site, subclass=self._sub)
            return False

    def guard(self, site: str = "?", *, subclass: int = 0) -> "_Guard":
        """``with lock.guard(site):`` — exception-safe lock/unlock pair."""
        return SpinLock._Guard(self, site, subclass)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SpinLock({self.name!r}, held={self.held}, hits={self.acquisitions})"


class Semaphore:
    """A counting semaphore — the kernel's *sleeping* lock.

    The contended ``down()`` slow path blocks on a wait queue through the
    scheduler, exactly like ``__down()``: the task is marked blocked and
    charged the schedule-away-and-back round trip, and the holder's
    ``up()`` wakes the queue.  (Cooperative single-CPU simulation: by the
    time the sleeper runs again the holder has released, so the semaphore
    transfers to the woken task.)  Because acquisition may block,
    semaphores are ``sleep``-kind locks to lockdep — legal to hold across
    blocking, illegal to take in atomic context.
    """

    def __init__(self, kernel: "Kernel", name: str, count: int = 1,
                 *, instrumented: bool = False):
        if count < 0:
            raise ValueError("semaphore count must be >= 0")
        self.kernel = kernel
        self.name = name
        self.count = count
        self.instrumented = instrumented
        self.downs = 0
        self.contended = 0
        self._wq = None   # created on first contention (needs the scheduler)
        #: binary semaphores are mutex-like and get full lockdep order
        #: tracking; counting semaphores are resource counters (multiple
        #: downs by one task are legal) and only get the might_sleep check.
        self._mutex_like = count == 1

    def _wait_queue(self):
        if self._wq is None:
            from repro.kernel.sched import WaitQueue
            self._wq = WaitQueue(self.kernel, f"sem:{self.name}")
        return self._wq

    def down(self, site: str = "?", *, subclass: int = 0) -> None:
        hooks = self.kernel.hooks
        if self._mutex_like:
            for fn in hooks.lock_acquire:
                fn(self, "sleep", site, subclass)
        else:
            for fn in hooks.might_sleep:
                fn(site, f"down() on semaphore '{self.name}'")
        if self.count == 0:
            # Contended: sleep on the wait queue until the holder's up().
            self.contended += 1
            self.kernel.metrics.counter(
                "sem.contended",
                help="semaphore down() slow paths (blocked)").inc()
            self._wait_queue().sleep(site)
            self.count = 1  # woken: the holder released it meanwhile
        self.count -= 1
        self.downs += 1
        if self.instrumented:
            self.kernel.log_event(self, EV_SEM_DOWN, site)

    def up(self, site: str = "?", *, subclass: int = 0) -> None:
        if self._mutex_like:
            for fn in self.kernel.hooks.lock_release:
                fn(self, "sleep", site, subclass)
        self.count += 1
        if self._wq is not None and self._wq.waiters:
            self._wq.wake_all(site)
        if self.instrumented:
            self.kernel.log_event(self, EV_SEM_UP, site)

    class _Guard:
        def __init__(self, sem: "Semaphore", site: str, subclass: int):
            self._sem, self._site, self._sub = sem, site, subclass

        def __enter__(self):
            self._sem.down(self._site, subclass=self._sub)
            return self._sem

        def __exit__(self, *exc):
            self._sem.up(self._site, subclass=self._sub)
            return False

    def guard(self, site: str = "?", *, subclass: int = 0) -> "_Guard":
        """``with sem.guard(site):`` — exception-safe down/up pair."""
        return Semaphore._Guard(self, site, subclass)
