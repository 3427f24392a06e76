"""Pinned observer outputs: what lockdep, the profiler and a syscall
tracer see on a serving run.

The cycle-identity tests prove that observers never move the simulated
clock, but not that each observer is told about every event exactly
once: a dropped or doubled subscription leaves every cycle count intact.
These pins hold what each observer recorded:

* the profiler's irqsoff, preemptoff and wakeup-delay histograms, the
  per-syscall latency histograms (count, sum, max) and ``samples_taken``;
* lockdep's acquisitions, class count, dependency edges and reports;
* a :class:`SyscallTracer` attached partway through the run: its record
  count and a sha256 over every record's
  ``(seq, nr, duration_cycles, bytes_copied, errno)``.

Two runs: uring serving sharded over two CPUs, and cpus=1 epoll serving.
Syscalls made before the tracer attaches (with the profiler already on)
must not shift the tracer's ``seq`` numbering.  Every kernel is booted
with an explicit CPU count and explicit observers, so the pins hold
under ``REPRO_CPUS``, ``REPRO_PROF`` and ``REPRO_LOCKDEP``.
"""

import hashlib

from repro.core.consolidation import SyscallTracer
from repro.kernel import Kernel
from repro.kernel.fs import RamfsSuperBlock
from repro.kernel.net import SocketLayer
from repro.kernel.vfs.file import O_CREAT, O_WRONLY
from repro.workloads import (HttpBenchConfig, run_http_bench,
                             run_http_bench_smp)

NCLIENTS = 300


def _boot(cpus: int) -> Kernel:
    k = Kernel(cpus=cpus, lockdep=True, profile=True)
    k.mount_root(RamfsSuperBlock(k))
    k.spawn("bench")
    # Syscalls before the tracer attaches: the profiler sees them, the
    # tracer must not.
    for i in range(5):
        fd = k.sys.open(f"/warm{i}", O_CREAT | O_WRONLY)
        k.sys.write(fd, b"x" * (64 * i))
        k.sys.close(fd)
    return k


def _hist(h) -> list[int]:
    return [h.count, h.sum, h.max]


def _observed(k: Kernel, tracer: SyscallTracer) -> dict:
    prof = k.prof
    ld = k.lockdep
    digest = hashlib.sha256()
    for r in tracer.records:
        digest.update(repr((r.seq, r.nr, r.duration_cycles, r.bytes_copied,
                            r.errno)).encode())
    return {
        "prof": {
            "irqsoff": _hist(prof.irqsoff),
            "preemptoff": _hist(prof.preemptoff),
            "wakeup_delay": _hist(prof.wakeup_delay),
            "syscalls": {name: _hist(h)
                         for name, h in sorted(prof.syscall_lat.items())},
            "samples_taken": prof.samples_taken,
        },
        "lockdep": {
            "acquisitions": ld.acquisitions,
            "classes": len(ld.classes),
            "edges": ld.edge_count(),
            "reports": len(ld.reports),
        },
        "tracer": {
            "records": len(tracer.records),
            "sha256": digest.hexdigest(),
        },
    }


def _uring_smp() -> dict:
    k = _boot(2)
    SocketLayer(k, queues=2)
    tracer = SyscallTracer(k).attach()
    run_http_bench_smp(k, "uring", HttpBenchConfig(nclients=NCLIENTS))
    return _observed(k, tracer)


def _epoll() -> dict:
    k = _boot(1)
    SocketLayer(k)
    tracer = SyscallTracer(k).attach()
    run_http_bench(k, "epoll", HttpBenchConfig(nclients=NCLIENTS))
    return _observed(k, tracer)


URING_SMP_ORACLE = {
    "prof": {
        "irqsoff": [11220, 839508, 194],
        "preemptoff": [1872, 10408746, 67756],
        "wakeup_delay": [11, 8719556, 1957696],
        "syscalls": {
            "bind": [2, 3140, 1570],
            "close": [21, 28350, 1350],
            "connect": [300, 2005752, 6710],
            "listen": [2, 3140, 1570],
            "mkdir": [1, 1538, 1538],
            "open": [21, 48635, 2445],
            "read": [600, 1955163, 6271],
            "socket": [302, 474140, 1570],
            "uring_enter": [2, 5868, 2934],
            "uring_setup": [2, 2880, 1440],
            "write": [321, 1934957, 6220],
        },
        "samples_taken": 218,
    },
    "lockdep": {"acquisitions": 12007, "classes": 6, "edges": 1,
                "reports": 0},
    "tracer": {
        "records": 1559,
        "sha256":
            "7bb8d289c69cbb184fc0230a211d8d43159702b2d38da9127cee9c88767290e8",
    },
}

EPOLL_ORACLE = {
    "prof": {
        "irqsoff": [9720, 660960, 68],
        "preemptoff": [3679, 13343944, 14570],
        "wakeup_delay": [7, 11078554, 3008428],
        "syscalls": {
            "accept": [303, 501450, 1658],
            "bind": [1, 1570, 1570],
            "close": [321, 433350, 1350],
            "connect": [300, 1998600, 6662],
            "epoll_create": [1, 1530, 1530],
            "epoll_ctl": [301, 460530, 1530],
            "epoll_wait": [8, 34896, 6102],
            "listen": [1, 1570, 1570],
            "mkdir": [1, 1538, 1538],
            "open": [321, 644135, 2445],
            "read": [900, 2484963, 6271],
            "sendfile": [300, 3774848, 17250],
            "socket": [301, 472570, 1570],
            "write": [321, 1357757, 5697],
        },
        "samples_taken": 266,
    },
    "lockdep": {"acquisitions": 10502, "classes": 4, "edges": 1,
                "reports": 0},
    "tracer": {
        "records": 3365,
        "sha256":
            "6f40e2c3ffded788ef24a466ee9e91ffb5d9465c5f16be40a39dccbc263a64fc",
    },
}


def test_uring_smp_observers():
    assert _uring_smp() == URING_SMP_ORACLE


def test_epoll_observers():
    assert _epoll() == EPOLL_ORACLE
