"""The Cosy shared buffer: one region, two views, zero copies.

The paper's Cosy uses two shared areas: the *compound buffer*, where
Cosy-Lib encodes operations that the kernel extension decodes in place, and
a *shared data buffer*, through which file data moves between syscalls and
the application without crossing the boundary.

Here one :class:`SharedBuffer` instance serves either role: it maps frames
into the task's user address space (so the user program reads/writes them
through the MMU at user cost) while the kernel accesses the same frames
directly (charged as in-kernel memcpy, *not* as uaccess — that absence of
uaccess cost is precisely the zero-copy saving being measured).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import CosyError
from repro.kernel.clock import Mode
from repro.kernel.memory.layout import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel
    from repro.kernel.process import Task


class SharedBuffer:
    """A user/kernel shared memory region with a bump allocator."""

    def __init__(self, kernel: "Kernel", task: "Task", size: int = 1 << 20):
        if size <= 0:
            raise CosyError("shared buffer size must be positive")
        self.kernel = kernel
        self.task = task
        self.size = size
        self.base = task.mem.map_shared(size)
        self._cursor = 0

    # ------------------------------------------------------------ allocation

    def alloc(self, nbytes: int, align: int = 8) -> int:
        """Reserve ``nbytes``; returns the *offset* within the buffer."""
        if nbytes <= 0:
            raise CosyError("shared alloc of non-positive size")
        self._cursor = (self._cursor + align - 1) & ~(align - 1)
        offset = self._cursor
        if offset + nbytes > self.size:
            raise CosyError("shared buffer exhausted")
        self._cursor += nbytes
        return offset

    def place(self, data: bytes, align: int = 8) -> int:
        """Allocate and fill; returns the offset (used for paths, literals)."""
        offset = self.alloc(len(data), align)
        self.write_user(offset, data)
        return offset

    def reset(self) -> None:
        self._cursor = 0

    # --------------------------------------------------------------- access

    def _check(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            raise CosyError(
                f"shared-buffer reference [{offset}, {offset + nbytes}) "
                f"outside region of {self.size} bytes")

    def read_user(self, offset: int, nbytes: int) -> bytes:
        """User-side access (through the MMU, charged at user rates)."""
        self._check(offset, nbytes)
        return self.kernel.mmu.read(self.task.aspace, self.base + offset, nbytes)

    def write_user(self, offset: int, data: bytes) -> None:
        self._check(offset, len(data))
        self.kernel.mmu.write(self.task.aspace, self.base + offset, data)

    def peek(self, offset: int, nbytes: int) -> bytes:
        """Observer access: the same bytes, read straight from the frames
        with no charge and no TLB or fault side effect (the region is
        mapped up front, so every page is present)."""
        self._check(offset, nbytes)
        out = bytearray()
        addr = self.base + offset
        end = addr + nbytes
        while addr < end:
            frame = self.task.aspace.lookup(addr).frame
            off = addr & (PAGE_SIZE - 1)
            n = min(end - addr, PAGE_SIZE - off)
            out += self.kernel.physmem.frame_bytes(frame)[off:off + n]
            addr += n
        return bytes(out)

    def read_kernel(self, offset: int, nbytes: int) -> bytes:
        """Kernel-side access: same frames, in-kernel memcpy cost only."""
        self._check(offset, nbytes)
        self.kernel.clock.charge(self.kernel.costs.memcpy_cost(nbytes),
                                 Mode.SYSTEM)
        return self.kernel.mmu.read(self.task.aspace, self.base + offset, nbytes)

    def write_kernel(self, offset: int, data: bytes) -> None:
        self._check(offset, len(data))
        self.kernel.clock.charge(self.kernel.costs.memcpy_cost(len(data)),
                                 Mode.SYSTEM)
        self.kernel.mmu.write(self.task.aspace, self.base + offset, data)
