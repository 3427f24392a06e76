"""Syscall tracing: the strace/audit substitute.

A :class:`SyscallTracer` attaches to the kernel's ``syscall`` hook and records
every :class:`~repro.kernel.syscalls.interface.SyscallRecord`.  The §2.2
interactive-workload experiment is pure accounting over such a trace:
total calls, total bytes crossing the boundary, and per-name histograms.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.kernel.syscalls.interface import SyscallRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel


@dataclass
class TraceSummary:
    """Aggregate statistics over a trace."""

    total_calls: int
    total_bytes: int
    bytes_to_user: int
    bytes_from_user: int
    calls_by_name: Counter = field(default_factory=Counter)
    bytes_by_name: Counter = field(default_factory=Counter)

    def top_calls(self, n: int = 10) -> list[tuple[str, int]]:
        return self.calls_by_name.most_common(n)


class SyscallTracer:
    """Records syscalls flowing through a kernel's dispatcher."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.records: list[SyscallRecord] = []
        self._seq = 0
        self._attached = False

    # ------------------------------------------------------------ lifecycle

    def attach(self) -> "SyscallTracer":
        if not self._attached:
            self.kernel.hooks.attach("syscall", self._record)
            self._attached = True
        return self

    def detach(self) -> None:
        if self._attached:
            self.kernel.hooks.detach("syscall", self._record)
            self._attached = False

    def __enter__(self) -> "SyscallTracer":
        return self.attach()

    def __exit__(self, *exc) -> bool:
        self.detach()
        return False

    def _record(self, record: SyscallRecord) -> None:
        """``syscall`` hook: keep the record, numbered from 1 (``seq``)."""
        self._seq += 1
        self.records.append(replace(record, seq=self._seq))

    def clear(self) -> None:
        self.records.clear()

    # ------------------------------------------------------------- analysis

    def name_sequence(self, pid: int | None = None) -> list[str]:
        """The per-process ordered sequence of syscall names."""
        return [r.name for r in self.records
                if pid is None or r.pid == pid]

    def pids(self) -> list[int]:
        return sorted({r.pid for r in self.records})

    def summary(self) -> TraceSummary:
        calls = Counter()
        byts = Counter()
        to_user = from_user = 0
        for r in self.records:
            calls[r.name] += 1
            byts[r.name] += r.bytes_copied
            to_user += r.bytes_to_user
            from_user += r.bytes_from_user
        return TraceSummary(
            total_calls=len(self.records),
            total_bytes=to_user + from_user,
            bytes_to_user=to_user,
            bytes_from_user=from_user,
            calls_by_name=calls,
            bytes_by_name=byts,
        )
