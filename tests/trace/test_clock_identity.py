"""Invariant 1: tracing has zero cost-model impact.

The same workload run with tracing off and with tracing on must land on
bit-identical user/system/iowait cycle counts — the tracer only ever
*reads* the clock.  The CI observers job re-asserts this run-wide by
executing the kernel suites under ``REPRO_PROF=1`` (which implies
tracing) with strict lockdep; ``tests/trace/test_hooks.py`` checks each
hook subscriber for zero charge on its own.
"""

from repro.kernel.core import Kernel
from repro.kernel.fs import Ext2SuperBlock, RamfsSuperBlock
from repro.kernel.net import SocketLayer
from repro.kernel.vfs.file import O_CREAT, O_RDWR


def buckets(k: Kernel) -> tuple[int, int, int]:
    return (k.clock.user, k.clock.system, k.clock.iowait)


def file_workload(k: Kernel) -> None:
    fd = k.sys.open("/w", O_CREAT | O_RDWR)
    for i in range(30):
        k.sys.write(fd, bytes([i % 251]) * 700)
    k.sys.lseek(fd, 0)
    while k.sys.read(fd, 4096):
        pass
    k.sys.close(fd)


def test_identity_on_ext2_with_disk_io():
    runs = []
    for traced in (False, True):
        k = Kernel()
        k.mount_root(Ext2SuperBlock(k))
        k.spawn("t0")
        if traced:
            k.trace.enable()
        file_workload(k)
        runs.append(buckets(k))
    assert runs[0] == runs[1]


def test_identity_on_network_workload():
    runs = []
    for traced in (False, True):
        k = Kernel()
        k.mount_root(RamfsSuperBlock(k))
        k.spawn("server")
        SocketLayer(k)
        if traced:
            k.trace.enable()
        server_fd = k.sys.socket()
        k.sys.bind(server_fd, 80)
        k.sys.listen(server_fd)
        client = k.spawn("client")
        k.sched.switch_to(client)
        cfd = k.sys.socket(blocking=False)
        k.sys.connect(cfd, 80)
        k.sys.write(cfd, b"ping")
        k.sched.switch_to(k.tasks[0])
        conn = k.sys.accept(server_fd)
        assert k.sys.read(conn, 16) == b"ping"
        runs.append(buckets(k))
    assert runs[0] == runs[1]


def test_identity_with_fault_injection():
    runs = []
    for traced in (False, True):
        k = Kernel()
        k.mount_root(RamfsSuperBlock(k))
        k.spawn("t0")
        if traced:
            k.trace.enable()
        with k.faults.inject("kmalloc", every=3):
            for _ in range(9):
                try:
                    k.kmalloc.kmalloc(128)
                except Exception:
                    pass
        runs.append(buckets(k))
    assert runs[0] == runs[1]


def test_identity_under_cosy_compound():
    from repro.core.cosy import CosyGCC, CosyKernelExtension, CosyLib

    src = """
    int main() {
        COSY_START();
        int p = 0;
        for (int i = 0; i < 40; i++) p = getpid();
        return p;
        COSY_END();
        return 0;
    }
    """
    runs = []
    for traced in (False, True):
        k = Kernel()
        k.mount_root(RamfsSuperBlock(k))
        k.spawn("t0")
        ext = CosyKernelExtension(k)
        lib = CosyLib(k, ext)
        installed = lib.install(k.current, CosyGCC().compile(src))
        if traced:
            k.trace.enable()
        assert installed.run().value == k.current.pid
        runs.append(buckets(k))
    assert runs[0] == runs[1]


def test_attribution_sums_to_clock_delta():
    """Invariant 2: self cycles + untraced == Δ(user+system+iowait)."""
    k = Kernel()
    k.mount_root(Ext2SuperBlock(k))
    k.spawn("t0")
    k.trace.enable()
    start = buckets(k)
    file_workload(k)
    att = k.trace.attribution()
    delta = sum(buckets(k)) - sum(start)
    assert att.window_cycles == delta
    assert att.attributed_cycles + att.untraced_cycles == delta
    assert att.complete
