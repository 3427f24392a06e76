"""Ring state: the shared-memory layout and the kernel-side ring object.

One :class:`Uring` owns a single :class:`~repro.core.cosy.shared_buffer
.SharedBuffer` laid out as::

    +--------+-----------------------+---------------------+------------+
    | header | SQE array             | CQE array           | data area  |
    | 24 B   | sq_entries x 64 B     | cq_entries x 16 B   | rest       |
    +--------+-----------------------+---------------------+------------+

The header holds four free-running u32 indices (``slot = index %
entries``) plus a flags word:

========  =====================================================
offset    field
========  =====================================================
0         ``sq_head`` — kernel-consumed; user reads it to size the
          submission window (SQ is full when ``tail - head == entries``)
4         ``sq_tail`` — user-produced; published once per batch
8         ``cq_head`` — user-consumed during harvesting
12        ``cq_tail`` — kernel-produced; user reads it trap-free to see
          how many completions are pending
16        ``flags`` — ``RING_NEED_WAKEUP`` when the sqpoll poller parked
========  =====================================================

Both sides keep authoritative Python mirrors of the indices they own and
read the other side's index out of shared memory, so every crossing of
ring state is a charged memory access (user rates through the MMU on the
user side, in-kernel memcpy on the kernel side) and *never* a uaccess
copy or a trap — that absence is the subsystem being measured.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.core.cosy.shared_buffer import SharedBuffer
from repro.kernel.locks import SpinLock
from repro.kernel.net.epoll import EPOLLIN
from repro.kernel.uring.sqe import CQE_SIZE, SQE_SIZE, Cqe
from repro.kernel.vfs.inode import Inode
from repro.kernel.vfs.super import SuperBlock

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel
    from repro.kernel.process import Task
    from repro.kernel.uring.layer import UringLayer

#: header field offsets / size (see module docstring)
SQ_HEAD_OFF = 0
SQ_TAIL_OFF = 4
CQ_HEAD_OFF = 8
CQ_TAIL_OFF = 12
FLAGS_OFF = 16
HEADER_SIZE = 24

#: header flags
RING_NEED_WAKEUP = 0x1

#: UringFS inode numbers start here so they can never collide with sockfs
#: inos — epoll pins registrations by ino (the PR 6 fd-reuse fix), and a
#: uring fd and a socket fd on one epoll set must stay distinguishable.
URING_INO_BASE = 1 << 32


class Uring:
    """Kernel-side state of one submission/completion ring pair."""

    def __init__(self, kernel: "Kernel", owner: "Task", *,
                 sq_entries: int, cq_entries: int, files: int,
                 data_bytes: int, sqpoll: bool, sq_cpu: int, sq_idle: int):
        self.kernel = kernel
        self.owner = owner
        self.inode: "UringInode | None" = None
        self.layer: "UringLayer | None" = None
        self.sq_entries = sq_entries
        self.cq_entries = cq_entries
        size = (HEADER_SIZE + sq_entries * SQE_SIZE
                + cq_entries * CQE_SIZE + data_bytes)
        self.shared = SharedBuffer(kernel, owner, size=size)
        self.shared.alloc(HEADER_SIZE)
        self.sq_off = self.shared.alloc(sq_entries * SQE_SIZE)
        self.cq_off = self.shared.alloc(cq_entries * CQE_SIZE)
        # later shared.alloc()/place() calls hand out data-area space
        self.shared.write_user(0, bytes(HEADER_SIZE))
        #: fixed-file table: ring-private slots holding owner-task fds
        #: (io_uring "direct descriptors"); -1 = empty slot
        self.fixed: list[int] = [-1] * files
        #: kernel-authoritative indices (mirrored to the header)
        self.sq_head = 0
        self.cq_tail = 0
        #: CQ-overflow backlog, flushed ahead of new completions
        self.overflow: deque[Cqe] = deque()
        #: armed ops (blocked single-shots + multishots), FIFO
        self.pending: list = []
        #: guards CQE posting (consistent irqsave discipline — the ring is
        #: polled from epoll_wait and sqpoll contexts on other CPUs)
        self.lock = SpinLock(kernel, "uring_ring")
        self.sqpoll = sqpoll
        self.sq_cpu = sq_cpu
        self.sq_idle = sq_idle
        self.idle_polls = 0
        self.parked = False
        self.closed = False
        self.submitted = 0
        self.completed = 0

    # --------------------------------------------- kernel-side ring access

    def k_read_u32(self, off: int) -> int:
        return int.from_bytes(self.shared.read_kernel(off, 4), "little")

    def k_write_u32(self, off: int, value: int) -> None:
        self.shared.write_kernel(off, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    def cq_space(self) -> int:
        """Free CQE slots (kernel view; the user advances ``cq_head``)."""
        head = self.k_read_u32(CQ_HEAD_OFF)
        return self.cq_entries - ((self.cq_tail - head) & 0xFFFFFFFF)

    def cq_pending(self) -> int:
        """CQEs published but not yet harvested (kernel view)."""
        return self._cq_pending(self.k_read_u32(CQ_HEAD_OFF))

    def cq_backlog(self) -> int:
        """:meth:`cq_pending` for observers (the profiler's counter
        track): the head is peeked, so reading it costs no cycles."""
        head = int.from_bytes(self.shared.peek(CQ_HEAD_OFF, 4), "little")
        return self._cq_pending(head)

    def _cq_pending(self, head: int) -> int:
        return ((self.cq_tail - head) & 0xFFFFFFFF) + len(self.overflow)

    def fixed_fd(self, slot: int) -> int:
        if not 0 <= slot < len(self.fixed):
            return -1
        return self.fixed[slot]


class UringFS(SuperBlock):
    """Anonymous superblock behind uring fds (one per kernel, lazy)."""

    def __init__(self, kernel: "Kernel"):
        super().__init__(kernel, "uringfs")
        self._next_ino = URING_INO_BASE


class UringInode(Inode):
    """The anonymous inode a uring fd names.

    Pollable: :meth:`epoll_events` reports EPOLLIN while harvested-able
    CQEs are pending, which lets hybrid epoll+uring event loops park one
    uring fd inside an epoll interest set (satellite of docs/URING.md).
    """

    def __init__(self, sb: UringFS, ring: Uring):
        super().__init__(sb, sb.alloc_ino(), 0o600)
        self.ring = ring
        ring.inode = self

    def epoll_events(self) -> int:
        """Level-triggered readiness mask for epoll integration.

        Models the kernel's poll callback on a uring fd: armed ops whose
        wait condition was satisfied since the last flush complete here
        (no trap — this already runs in kernel context), then EPOLLIN
        reports whether CQEs await harvesting.
        """
        ring = self.ring
        if ring.closed or ring.layer is None:
            return 0
        ring.layer.poll_ring(ring)
        return EPOLLIN if ring.cq_pending() else 0

    def release_file(self, file) -> None:
        """Closing the uring fd tears the ring down: armed ops are
        dropped, fixed files closed, and the anonymous inode unregistered
        (the same churn-leak discipline as socket endpoints)."""
        ring = self.ring
        ring.closed = True
        ring.pending.clear()
        ring.overflow.clear()
        if ring.layer is not None:
            ring.layer.release_ring(ring)
        self.sb.drop_inode(self)
