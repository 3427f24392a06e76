"""UringQueue: the user-side ring library (the liburing analogue).

Everything here runs in *user mode*: SQE stores and CQE loads go through
the MMU at user rates into the shared ring area, and per-byte
``user_touch_per_byte`` cycles model the application formatting and
parsing entries.  The only traps are ``uring_enter`` calls — one per
batch in enter mode, and only the rare ``NEED_WAKEUP`` unpark in sqpoll
mode.  Harvesting completions is always trap-free: the library reads
``cq_tail`` straight out of shared memory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import EAGAIN, raise_errno
from repro.kernel.clock import Mode
from repro.kernel.uring.ring import (CQ_TAIL_OFF, FLAGS_OFF, CQ_HEAD_OFF,
                                     RING_NEED_WAKEUP, SQ_HEAD_OFF,
                                     SQ_TAIL_OFF, Uring)
from repro.kernel.uring.sqe import (CQE_SIZE, SQE_SIZE, Cqe, Sqe, decode_cqe)

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel


class UringQueue:
    """User-space handle on one ring pair (created after ``uring_setup``)."""

    def __init__(self, kernel: "Kernel", fd: int):
        from repro.kernel.uring.ring import UringInode
        self.kernel = kernel
        self.fd = fd
        file = kernel.current.get_file(fd)
        if file is None or not isinstance(file.inode, UringInode):
            raise ValueError(f"fd {fd} is not a uring fd")
        self.ring: Uring = file.inode.ring
        self.shared = self.ring.shared
        #: user-authoritative indices (mirrored to the header)
        self.sq_tail = 0
        self.cq_head = 0
        self._unpublished = 0

    # ----------------------------------------------------- user ring access

    def _read_u32(self, off: int) -> int:
        return int.from_bytes(self.shared.read_user(off, 4), "little")

    def _write_u32(self, off: int, value: int) -> None:
        self.shared.write_user(off, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    def _touch(self, nbytes: int) -> None:
        self.kernel.clock.charge(
            int(nbytes * self.kernel.costs.user_touch_per_byte), Mode.USER)

    # ------------------------------------------------------------ data area

    def alloc(self, nbytes: int, align: int = 8) -> int:
        """Reserve space in the ring's data area; returns the offset."""
        return self.shared.alloc(nbytes, align)

    def place(self, data: bytes, align: int = 8) -> int:
        """Allocate, fill (at user rates), and return the offset."""
        offset = self.alloc(len(data), align)
        self.shared.write_user(offset, data)
        self._touch(len(data))
        return offset

    # ----------------------------------------------------------- submission

    def sq_space(self) -> int:
        """Free SQE slots (reads the kernel's ``sq_head`` trap-free)."""
        head = self._read_u32(SQ_HEAD_OFF)
        return self.ring.sq_entries - ((self.sq_tail - head) & 0xFFFFFFFF)

    def prep(self, sqe: Sqe) -> bool:
        """Queue one SQE; False when the SQ is full (backpressure — submit
        and retry after the kernel consumes the backlog)."""
        if self.sq_space() <= 0:
            return False
        slot = self.sq_tail % self.ring.sq_entries
        self.shared.write_user(self.ring.sq_off + slot * SQE_SIZE,
                               sqe.encode())
        self._touch(SQE_SIZE)
        self.sq_tail = (self.sq_tail + 1) & 0xFFFFFFFF
        self._unpublished += 1
        return True

    def publish(self) -> int:
        """Publish queued SQEs by storing ``sq_tail`` (no trap)."""
        if self._unpublished:
            self._write_u32(SQ_TAIL_OFF, self.sq_tail)
            self._unpublished = 0
        return self.sq_tail

    def submit(self, min_complete: int = 0) -> int:
        """Publish and hand the batch to the kernel; returns SQEs consumed.

        Enter mode: one ``uring_enter`` trap per call.  Sqpoll mode: the
        publish store is all the poller needs — the library only checks
        the ``NEED_WAKEUP`` flag and pays a trap when the poller parked.
        In the cooperative simulation the poller's next iteration is run
        inline here (and from :meth:`harvest`), charged to the poller's
        CPU, never to a trap.
        """
        self.publish()
        ring = self.ring
        if not ring.sqpoll:
            return self.kernel.sys.uring_enter(self.fd,
                                               min_complete=min_complete)
        flags = self._read_u32(FLAGS_OFF)
        self._touch(4)
        if flags & RING_NEED_WAKEUP:
            return self.kernel.sys.uring_enter(self.fd, wakeup=True,
                                               min_complete=min_complete)
        assert ring.layer is not None
        return ring.layer.sqpoll_run(ring, min_complete=min_complete)

    # ----------------------------------------------------------- completion

    def cq_pending(self) -> int:
        """Completions awaiting harvest (reads ``cq_tail`` trap-free)."""
        tail = self._read_u32(CQ_TAIL_OFF)
        return (tail - self.cq_head) & 0xFFFFFFFF

    def harvest(self, maxevents: int | None = None) -> list[Cqe]:
        """Drain ready CQEs with zero crossings.

        In sqpoll mode an empty completion queue gives the poller one
        inline iteration (its chance to notice published SQEs) before
        reporting nothing.
        """
        ring = self.ring
        n = self.cq_pending()
        if n == 0 and ring.sqpoll and not ring.parked:
            assert ring.layer is not None
            ring.layer.sqpoll_run(ring)
            n = self.cq_pending()
        if maxevents is not None:
            n = min(n, maxevents)
        out: list[Cqe] = []
        for _ in range(n):
            slot = self.cq_head % ring.cq_entries
            raw = self.shared.read_user(ring.cq_off + slot * CQE_SIZE,
                                        CQE_SIZE)
            self._touch(CQE_SIZE)
            out.append(decode_cqe(raw))
            self.cq_head = (self.cq_head + 1) & 0xFFFFFFFF
        if out:
            self._write_u32(CQ_HEAD_OFF, self.cq_head)
        return out

    def enter(self, min_complete: int = 0) -> int:
        """An explicit ``uring_enter`` trap (flushes armed ops and the
        CQ-overflow backlog; blocks for ``min_complete`` completions)."""
        self.publish()
        return self.kernel.sys.uring_enter(self.fd, min_complete=min_complete)

    def require_space(self, n: int) -> None:
        """Raise EAGAIN unless ``n`` SQE slots are free (test helper for
        the SQ-full backpressure contract)."""
        if self.sq_space() < n:
            raise_errno(EAGAIN, "submission queue full")
