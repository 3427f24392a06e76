"""The kernel's attach-point table (``repro.kernel.hooks``).

Every subscriber except a ``preempt`` one must leave the simulated clock
untouched.  End-to-end identity tests only detect a charging observer;
here each subscriber call is checked on its own, so a failure names the
point and the subscriber.
"""

from collections import Counter

import pytest

from repro.core.consolidation import SyscallTracer
from repro.kernel import Kernel
from repro.kernel.fs import RamfsSuperBlock
from repro.kernel.hooks import Hooks
from repro.kernel.locks import Semaphore
from repro.kernel.net import SocketLayer
from repro.kernel.sched import WaitQueue
from repro.kernel.vfs.file import O_CREAT, O_RDWR
from repro.workloads import (HttpBenchConfig, run_http_bench,
                             run_http_bench_smp)

#: points whose subscribers may charge cycles
CHARGING = {"preempt"}


def _clock_state(clock) -> tuple:
    return (clock.user, clock.system, clock.iowait,
            tuple(clock.local_now(c) for c in range(clock.cpus)))


class ChargeCheck:
    """Re-subscribes every non-charging subscriber through a wrapper that
    compares the clock before and after each call."""

    def __init__(self, kernel: Kernel):
        self.fired: Counter = Counter()
        self.violations: list[tuple[str, str]] = []
        hooks = kernel.hooks
        clock = kernel.clock
        for point in Hooks.__slots__:
            if point in CHARGING:
                continue
            for fn in getattr(hooks, point):
                hooks.detach(point, fn)
                hooks.attach(point, self._wrap(clock, point, fn))

    def _wrap(self, clock, point: str, fn):
        def checked(*args):
            before = _clock_state(clock)
            fn(*args)
            self.fired[point] += 1
            if _clock_state(clock) != before:
                self.violations.append((point, repr(fn)))
        return checked


def _boot(cpus: int) -> Kernel:
    k = Kernel(cpus=cpus, lockdep=True, profile=True)
    k.mount_root(RamfsSuperBlock(k))
    k.spawn("bench")
    return k


def _uring_smp(k: Kernel) -> None:
    SocketLayer(k, queues=2)
    run_http_bench_smp(k, "uring", HttpBenchConfig(nclients=300))


def _epoll(k: Kernel) -> None:
    SocketLayer(k)
    run_http_bench(k, "epoll", HttpBenchConfig(nclients=300))


def _files_and_sleeps(k: Kernel) -> None:
    """File syscalls (i_sem, rename_sem) plus the two ``might_sleep``
    sites serving never reaches: a counting semaphore and a wait queue."""
    sys = k.sys
    sys.mkdir("/d")
    for i in range(20):
        fd = sys.open(f"/d/f{i}", O_CREAT | O_RDWR)
        sys.write(fd, b"x" * (512 * i))
        sys.close(fd)
    sys.rename("/d/f0", "/d/g0")
    for i in range(1, 20):
        sys.unlink(f"/d/f{i}")
    pool = Semaphore(k, "test_pool", count=2)
    with pool.guard("test:pool"):
        pass
    WaitQueue(k, "test_wq").sleep("test:wq")


@pytest.mark.parametrize("cpus,workload", [(2, _uring_smp), (1, _epoll)],
                         ids=["uring-smp", "epoll"])
def test_subscribers_never_charge(cpus, workload):
    k = _boot(cpus)
    tracer = SyscallTracer(k).attach()
    check = ChargeCheck(k)
    _files_and_sleeps(k)
    workload(k)
    assert not check.violations
    assert set(check.fired) == set(Hooks.__slots__) - CHARGING
    # two syscall subscribers, the profiler and the tracer: one call each
    assert 2 * len(tracer.records) == check.fired["syscall"]


def test_attach_detach_keeps_order():
    hooks = Hooks()
    a, b = print, repr
    hooks.attach("syscall", a)
    hooks.attach("syscall", b)
    assert hooks.syscall == (a, b)
    hooks.detach("syscall", a)
    assert hooks.syscall == (b,)
    with pytest.raises(ValueError):
        hooks.detach("syscall", a)
    assert Hooks().syscall == ()


def test_profiler_subscribes_once():
    k = Kernel(cpus=1, profile=False)
    assert k.hooks.syscall == ()
    k.trace.enable()
    k.prof.enable()
    k.prof.enable()
    assert len(k.hooks.syscall) == 1
    k.prof.disable()
    k.prof.disable()
    assert k.hooks.syscall == ()
