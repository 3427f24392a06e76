"""PostMark: the small-file transaction benchmark (Katcher, TR3022).

The real PostMark creates a pool of small files, then runs transactions,
each pairing one file operation (read or append) with one pool operation
(create or delete), and finally deletes the pool.  This clone follows that
structure against the simulated kernel's syscalls, so it generates the
same metadata-heavy pressure on the dcache — which is why the paper uses
it to stress ``dcache_lock`` in §3.3 and KGCC's overheads in §3.4.

A ``checkpoint`` callback fires after every transaction; the monitoring
benchmarks hang the user-space logger's pump off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import Errno
from repro.kernel.clock import Mode, Timings
from repro.kernel.vfs.file import O_APPEND, O_CREAT, O_RDONLY, O_WRONLY

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel


@dataclass
class PostMarkConfig:
    """Pool and transaction parameters (defaults scaled for simulation)."""

    nfiles: int = 100
    min_size: int = 512
    max_size: int = 9984       # PostMark's classic 500 bytes – 9.77 KB
    transactions: int = 500
    read_block: int = 4096
    write_block: int = 4096
    #: probability a transaction's file op is a read (vs append)
    read_bias: float = 0.5
    #: probability a transaction's pool op is a create (vs delete)
    create_bias: float = 0.5
    workdir: str = "/postmark"
    seed: int = 42


@dataclass
class PostMarkResult:
    transactions: int
    files_created: int
    files_deleted: int
    bytes_read: int
    bytes_written: int
    timings: Timings
    dcache_lock_hits: int


class PostMark:
    """One PostMark run against a kernel."""

    def __init__(self, kernel: "Kernel", config: PostMarkConfig | None = None,
                 *, checkpoint: Callable[[], None] | None = None):
        self.kernel = kernel
        self.config = config or PostMarkConfig()
        self.checkpoint = checkpoint
        self._rng = np.random.default_rng(self.config.seed)
        self._files: list[str] = []
        self._serial = 0

    # ------------------------------------------------------------ phases

    def _rand_size(self) -> int:
        return int(self._rng.integers(self.config.min_size,
                                      self.config.max_size + 1))

    def _new_name(self) -> str:
        self._serial += 1
        return f"{self.config.workdir}/pm{self._serial:07d}"

    def _create_file(self) -> tuple[str, int]:
        sys = self.kernel.sys
        name = self._new_name()
        size = self._rand_size()
        fd = sys.open(name, O_CREAT | O_WRONLY)
        written = 0
        payload = bytes(self._rng.integers(0, 256, self.config.write_block,
                                           dtype=np.uint8))
        while written < size:
            n = min(self.config.write_block, size - written)
            sys.write(fd, payload[:n])
            written += n
        sys.close(fd)
        self._files.append(name)
        return name, written

    def _read_file(self, name: str) -> int:
        sys = self.kernel.sys
        fd = sys.open(name, O_RDONLY)
        total = 0
        while True:
            data = sys.read(fd, self.config.read_block)
            if not data:
                break
            total += len(data)
            # the application actually looks at what it read
            self.kernel.clock.charge(
                int(len(data) * self.kernel.costs.user_touch_per_byte),
                Mode.USER)
        sys.close(fd)
        return total

    def _append_file(self, name: str) -> int:
        sys = self.kernel.sys
        n = min(self._rand_size(), self.config.write_block)
        fd = sys.open(name, O_WRONLY | O_APPEND)
        payload = bytes(self._rng.integers(0, 256, n, dtype=np.uint8))
        sys.write(fd, payload)
        sys.close(fd)
        return n

    def _delete_file(self, name: str) -> None:
        self.kernel.sys.unlink(name)
        self._files.remove(name)

    # --------------------------------------------------------------- run

    def run(self) -> PostMarkResult:
        cfg = self.config
        sys = self.kernel.sys
        lock_hits0 = self.kernel.vfs.dcache_lock.acquisitions
        created = deleted = bytes_read = bytes_written = 0
        try:
            sys.mkdir(cfg.workdir)
        except Errno:
            pass  # reusing an existing work directory
        with self.kernel.measure() as m:
            # Phase 1: build the pool.
            for _ in range(cfg.nfiles):
                _, n = self._create_file()
                created += 1
                bytes_written += n
            # Phase 2: transactions.
            for _ in range(cfg.transactions):
                if not self._files:
                    _, n = self._create_file()
                    created += 1
                    bytes_written += n
                target = self._files[int(self._rng.integers(len(self._files)))]
                if self._rng.random() < cfg.read_bias:
                    bytes_read += self._read_file(target)
                else:
                    bytes_written += self._append_file(target)
                if self._rng.random() < cfg.create_bias:
                    _, n = self._create_file()
                    created += 1
                    bytes_written += n
                elif self._files:
                    victim = self._files[
                        int(self._rng.integers(len(self._files)))]
                    self._delete_file(victim)
                    deleted += 1
                if self.checkpoint is not None:
                    self.checkpoint()
            # Phase 3: delete the remaining pool.
            for name in list(self._files):
                self._delete_file(name)
                deleted += 1
            sys.rmdir(cfg.workdir)
        return PostMarkResult(
            transactions=cfg.transactions, files_created=created,
            files_deleted=deleted, bytes_read=bytes_read,
            bytes_written=bytes_written, timings=m.timings,
            dcache_lock_hits=(self.kernel.vfs.dcache_lock.acquisitions
                              - lock_hits0),
        )
