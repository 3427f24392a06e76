"""Lockdep self-tests: known-bad locking patterns the validator must catch.

Linux ships ``lib/locking-selftest.c`` — a battery of deliberately wrong
lock sequences run at boot to prove the validator itself works.  This is
the simulator's equivalent: each case boots a fresh kernel with a
*non-strict* validator (record, don't raise), executes one bad pattern
with throwaway locks, and checks that exactly the expected violation kind
was reported — plus "good" cases that must stay silent.

``run_selftests()`` returns the results; ``tests/safety/test_lockdep.py``
asserts every case passes, and the CI ``observers`` job runs them too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.safety.lockdep.report import (DEADLOCK, IRQ_INVERSION,
                                         IRQ_UNSAFE_DEP, RECURSION,
                                         RELEASE_ORDER, SLEEP_IN_ATOMIC)


@dataclass
class SelftestResult:
    name: str
    expected: str | None          # violation kind, or None for good cases
    ok: bool
    reports: list = field(default_factory=list)

    def describe(self) -> str:
        want = self.expected or "no violation"
        got = ", ".join(r.kind for r in self.reports) or "no violation"
        mark = "ok" if self.ok else "FAILED"
        return f"[{mark:>6}] {self.name}: expected {want}, got {got}"


def _fresh_kernel():
    from repro.kernel.core import Kernel
    from repro.kernel.fs.ramfs import RamfsSuperBlock
    kernel = Kernel(lockdep=True)
    kernel.mount_root(RamfsSuperBlock(kernel))
    kernel.spawn("selftest")
    return kernel


def _case(name: str, expected: str | None, body) -> SelftestResult:
    kernel = _fresh_kernel()
    body(kernel)
    reports = kernel.lockdep.reports
    if expected is None:
        ok = not reports
    else:
        ok = any(r.kind == expected for r in reports)
        if expected == DEADLOCK:
            # The acceptance bar: a cycle report must carry BOTH chains —
            # this task's acquisitions and the recorded first witnesses.
            ok = ok and all(r.this_chain and r.recorded_chain
                            for r in reports if r.kind == DEADLOCK)
    return SelftestResult(name, expected, ok, list(reports))


# --------------------------------------------------------------- bad cases

def _ab_ba(kernel):
    from repro.kernel.locks import SpinLock
    a = SpinLock(kernel, "selftest_A")
    b = SpinLock(kernel, "selftest_B")
    with a.guard("st:ab1"):
        with b.guard("st:ab2"):
            pass
    with b.guard("st:ba1"):
        with a.guard("st:ba2"):
            pass


def _abc_cycle(kernel):
    """Three-lock cycle: A->B, B->C, then C->A closes it."""
    from repro.kernel.locks import SpinLock
    a = SpinLock(kernel, "selftest_A")
    b = SpinLock(kernel, "selftest_B")
    c = SpinLock(kernel, "selftest_C")
    with a.guard("st:ab"):
        with b.guard("st:ab"):
            pass
    with b.guard("st:bc"):
        with c.guard("st:bc"):
            pass
    with c.guard("st:ca"):
        with a.guard("st:ca"):
            pass


def _class_recursion(kernel):
    """Two *instances* of one class nested — instance recursion is caught
    by the spinlock itself, class recursion only by lockdep."""
    from repro.kernel.locks import SpinLock
    a1 = SpinLock(kernel, "selftest_R")
    a2 = SpinLock(kernel, "selftest_R")
    with a1.guard("st:rec1"):
        with a2.guard("st:rec2"):
            pass


def _sem_ab_ba(kernel):
    """Order violations apply to sleeping locks too."""
    from repro.kernel.locks import Semaphore
    a = Semaphore(kernel, "selftest_sem_A")
    b = Semaphore(kernel, "selftest_sem_B")
    a.down("st:sab1"); b.down("st:sab2")
    b.up("st:sab2"); a.up("st:sab1")
    b.down("st:sba1"); a.down("st:sba2")
    a.up("st:sba2"); b.up("st:sba1")


def _irq_inversion(kernel):
    """One class taken both inside a hardirq handler and with irqs on."""
    from repro.kernel.locks import SpinLock
    lk = SpinLock(kernel, "selftest_inv")
    ld = kernel.lockdep
    ld.hardirq_enter()
    with kernel.irq.irqs_off("st:handler"):
        with lk.guard("st:in-irq"):
            pass
    ld.hardirq_exit()
    with lk.guard("st:irqs-on"):          # no irqs_off: inversion
        pass


def _irq_unsafe_dep(kernel):
    """An irq-safe lock ordered before an irq-unsafe one."""
    from repro.kernel.locks import SpinLock
    safe = SpinLock(kernel, "selftest_safe")
    unsafe = SpinLock(kernel, "selftest_unsafe")
    ld = kernel.lockdep
    with unsafe.guard("st:unsafe-on"):    # irqs on: class is irq-unsafe
        pass
    ld.hardirq_enter()
    with kernel.irq.irqs_off("st:handler"):
        with safe.guard("st:safe-in-irq"):   # class is irq-safe
            pass
    ld.hardirq_exit()
    with kernel.irq.irqs_off("st:dep"):
        with safe.guard("st:dep"):
            with unsafe.guard("st:dep"):     # safe -> unsafe dependency
                pass


def _sleep_under_spinlock(kernel):
    from repro.kernel.locks import SpinLock
    from repro.kernel.sched import WaitQueue
    lk = SpinLock(kernel, "selftest_atomic")
    wq = WaitQueue(kernel, "selftest_wq")
    with lk.guard("st:atomic"):
        wq.sleep("st:sleep")


def _sem_down_in_irq_handler(kernel):
    from repro.kernel.locks import Semaphore
    sem = Semaphore(kernel, "selftest_sem")
    ld = kernel.lockdep
    ld.softirq_enter()
    sem.down("st:down-in-softirq")
    ld.softirq_exit()
    sem.up("st:up")


def _sleep_with_irqs_off(kernel):
    from repro.kernel.sched import WaitQueue
    wq = WaitQueue(kernel, "selftest_wq")
    with kernel.irq.irqs_off("st:cli"):
        wq.sleep("st:sleep")


def _release_out_of_order(kernel):
    from repro.kernel.locks import SpinLock
    a = SpinLock(kernel, "selftest_A")
    b = SpinLock(kernel, "selftest_B")
    a.lock("st:oo")
    b.lock("st:oo")
    a.unlock("st:oo")                     # A released while B (newer) held
    b.unlock("st:oo")


# -------------------------------------------------------------- good cases

def _consistent_order(kernel):
    from repro.kernel.locks import SpinLock
    a = SpinLock(kernel, "selftest_A")
    b = SpinLock(kernel, "selftest_B")
    c = SpinLock(kernel, "selftest_C")
    for _ in range(3):
        with a.guard("st:good"):
            with b.guard("st:good"):
                with c.guard("st:good"):
                    pass
        with b.guard("st:good"):          # skipping levels is fine
            with c.guard("st:good"):
                pass


def _irqsave_discipline(kernel):
    """A lock shared with irq context, but always taken irqsave: clean."""
    from repro.kernel.locks import SpinLock
    lk = SpinLock(kernel, "selftest_irqsave")
    ld = kernel.lockdep
    ld.hardirq_enter()
    with kernel.irq.irqs_off("st:handler"):
        with lk.guard("st:in-irq"):
            pass
    ld.hardirq_exit()
    with kernel.irq.irqs_off("st:process"):
        with lk.guard("st:process"):      # irqs off: no inversion
            pass


def _subclass_nesting(kernel):
    """Same-class nesting blessed with subclass annotation (i_sem/1)."""
    from repro.kernel.locks import Semaphore
    parent = Semaphore(kernel, "selftest_nest")
    child = Semaphore(kernel, "selftest_nest")
    parent.down("st:parent")
    child.down("st:child", subclass=1)
    child.up("st:child", subclass=1)
    parent.up("st:parent")


def _sleeping_then_spin(kernel):
    """Spinlock under a semaphore is fine; only the reverse is atomic."""
    from repro.kernel.locks import Semaphore, SpinLock
    sem = Semaphore(kernel, "selftest_sem")
    lk = SpinLock(kernel, "selftest_spin")
    sem.down("st:outer")
    with lk.guard("st:inner"):
        pass
    sem.up("st:outer")


CASES = [
    ("AB-BA deadlock", DEADLOCK, _ab_ba),
    ("A->B->C->A cycle", DEADLOCK, _abc_cycle),
    ("same-class recursion", RECURSION, _class_recursion),
    ("semaphore AB-BA", DEADLOCK, _sem_ab_ba),
    ("irq inversion", IRQ_INVERSION, _irq_inversion),
    ("irq-safe -> irq-unsafe dependency", IRQ_UNSAFE_DEP, _irq_unsafe_dep),
    ("sleep under spinlock", SLEEP_IN_ATOMIC, _sleep_under_spinlock),
    ("semaphore down in softirq", SLEEP_IN_ATOMIC, _sem_down_in_irq_handler),
    ("sleep with irqs off", SLEEP_IN_ATOMIC, _sleep_with_irqs_off),
    ("release out of order", RELEASE_ORDER, _release_out_of_order),
    ("consistent ordering (good)", None, _consistent_order),
    ("irqsave discipline (good)", None, _irqsave_discipline),
    ("subclass nesting (good)", None, _subclass_nesting),
    ("spin under sleeping lock (good)", None, _sleeping_then_spin),
]


def run_selftests() -> list[SelftestResult]:
    """Run every case on a fresh kernel; returns one result per case."""
    return [_case(name, expected, body) for name, expected, body in CASES]


def main() -> int:  # pragma: no cover - exercised via CI job
    results = run_selftests()
    for res in results:
        print(res.describe())
    failed = [r for r in results if not r.ok]
    print(f"lockdep selftest: {len(results) - len(failed)}/{len(results)} ok")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
