"""epoll-style readiness: O(ready) event collection for event-loop servers.

select(2) makes the kernel rescan the *entire* interest set on every call
— cost proportional to open connections, paid per request.  epoll keeps
the interest set registered in the kernel across calls, so ``epoll_wait``
pays only for the events it reports.  The cost model mirrors that split
(``select_per_fd`` × interest size vs ``epoll_wait_base`` +
``epoll_per_event`` × ready count), which is exactly the curve
``benchmarks/bench_net.py`` measures.

The host mechanism matches the modelled one.  Registering a socket hangs
a watcher on its wait queue (Linux's ``ep_poll_callback``): whenever the
socket's readiness can rise — a wakeup for data, SYN, SYN+ACK, FIN or
RST delivery and resets, the endpoint closing, ``shutdown(SHUT_RD)``, or
the peer reading from a capped receive buffer (EPOLLOUT,
``sk_write_space``) — its fd lands on the instance's ready list.
``epoll_wait`` visits only that list, plus the non-socket pollables
(uring fds), which are re-polled on every wait because polling one runs
its ring.  Feeding the list is free: no charge, no trace event, no
wakeup count.

Candidates are visited in the order a full scan from the rotating
fairness cursor would reach them, so the reported events, their order
and the cursor are exactly those of scanning the whole interest set.
The list is level-triggered: a reported fd stays on it, and an fd found
not ready, closed, or reused for another socket leaves it until its next
readiness change.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import EBADF, EINVAL, raise_errno
from repro.kernel.net.socket import SocketInode
from repro.kernel.sched import WaitQueue
from repro.kernel.vfs.inode import Inode

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.net.socket import SockFS

#: event mask bits (subset of <sys/epoll.h>)
EPOLLIN = 0x001
EPOLLOUT = 0x004
EPOLLERR = 0x008
EPOLLHUP = 0x010

#: epoll_ctl ops
EPOLL_CTL_ADD = 1
EPOLL_CTL_DEL = 2
EPOLL_CTL_MOD = 3

#: bytes copied to user per reported event (fd + mask, packed)
EVENT_BYTES = 12


def socket_events(sock: SocketInode) -> int:
    """Current level-triggered readiness mask for one socket."""
    mask = 0
    if sock.readable_ready:
        mask |= EPOLLIN
    if sock.writable_ready:
        mask |= EPOLLOUT
    if sock.reset:
        mask |= EPOLLERR
    if sock.peer_closed or sock.closed:
        mask |= EPOLLHUP
    return mask


class EpollInode(Inode):
    """The anonymous inode behind an epoll fd: the interest set."""

    def __init__(self, sb: "SockFS"):
        super().__init__(sb, sb.alloc_ino(), 0o600)
        self.interest: dict[int, int] = {}      # fd -> requested mask
        #: fd -> ino of the inode registered under that fd.  Descriptor
        #: numbers are reused (POSIX lowest-free rule), so after a close
        #: without EPOLL_CTL_DEL the same fd can name a *different* socket;
        #: the ino pins which endpoint the registration was for.
        self._identity: dict[int, int] = {}
        self._order: list[int] = []             # registration order + tombstones
        self._pos: dict[int, int] = {}          # fd -> index in _order
        self._cursor = 0
        #: fds whose readiness may have risen since they were last found
        #: not ready; fed by the watchers on the sockets' wait queues
        self._ready: set[int] = set()
        #: registered non-socket pollables (uring fds), polled every wait
        self._polled: set[int] = set()
        #: fd -> the socket wait queue carrying this instance's watcher
        self._watched: dict[int, WaitQueue] = {}
        self.waits = 0
        self.events_reported = 0
        self.stale_replaced = 0
        self.stale_skipped = 0
        #: blocking epoll_wait callers sleep here until delivery wakes them
        self.wq = WaitQueue(sb.kernel, f"epoll:{self.ino}")

    # ----------------------------------------------------------- interest

    def _is_stale(self, fd: int, ino: int) -> bool:
        """True when ``fd``'s registration names a different inode than the
        one currently installed at ``fd`` (close + fd reuse)."""
        registered = self._identity.get(fd)
        return registered is not None and registered != ino

    def ctl_add(self, fd: int, mask: int, inode: Inode) -> None:
        if fd in self.interest:
            if not self._is_stale(fd, inode.ino):
                raise_errno(EINVAL, f"fd {fd} already in epoll set")
            # The registered socket is gone and the descriptor number was
            # reused: the dead entry must not block the new registration.
            self._forget(fd)
            self.stale_replaced += 1
        self.interest[fd] = mask
        self._identity[fd] = inode.ino
        # A prior DEL/forget leaves a tombstone in the order list; once the
        # fd goes live again that entry would make collect() report the same
        # descriptor twice per scan, so re-registration must not append a
        # second one.
        if fd not in self._pos:
            self._pos[fd] = len(self._order)
            self._order.append(fd)
        if isinstance(inode, SocketInode):
            wq = inode.wq
            wq.pollers += (self._ready, fd)
            self._watched[fd] = wq
        else:
            self._polled.add(fd)
        self._ready.add(fd)

    def ctl_mod(self, fd: int, mask: int, ino: int) -> None:
        if fd not in self.interest or self._is_stale(fd, ino):
            raise_errno(EBADF, f"fd {fd} not in epoll set")
        self.interest[fd] = mask
        self._ready.add(fd)

    def ctl_del(self, fd: int) -> None:
        if fd not in self.interest:
            raise_errno(EBADF, f"fd {fd} not in epoll set")
        self._forget(fd)

    def _forget(self, fd: int) -> None:
        del self.interest[fd]
        del self._identity[fd]
        self._ready.discard(fd)
        self._polled.discard(fd)
        self._unwatch(fd)
        self._compact()

    def _unwatch(self, fd: int) -> None:
        wq = self._watched.pop(fd, None)
        if wq is not None:
            p = wq.pollers
            i = next(i for i in range(0, len(p), 2)
                     if p[i] is self._ready and p[i + 1] == fd)
            wq.pollers = p[:i] + p[i + 2:]

    def _compact(self) -> None:
        # the order list keeps a tombstone; compact when mostly dead
        if len(self._order) > 32 and len(self._order) > 2 * len(self.interest):
            self._order = [f for f in self._order if f in self.interest]
            self._pos = {f: i for i, f in enumerate(self._order)}
            self._cursor = 0

    # ------------------------------------------------------------- polling

    def _offsets(self, start: int, after: int) -> list[int]:
        """Scan offsets from ``start`` of every candidate past ``after``,
        ascending: the order a full scan from the cursor would reach them."""
        pos, n = self._pos, len(self._order)
        cands = self._ready | self._polled if self._polled else self._ready
        return sorted(off for off in ((pos[fd] - start) % n for fd in cands)
                      if off > after)

    def collect(self, resolve, maxevents: int) -> list[tuple[int, int]]:
        """Visit the ready list from the fairness cursor; returns up to
        ``maxevents`` (fd, ready_mask) pairs.  ``resolve(fd)`` maps fd to a
        pollable inode: a :class:`SocketInode`, or any inode exposing an
        ``epoll_events()`` readiness mask (uring fds — docs/URING.md)."""
        order = self._order
        n = len(order)
        if n == 0:
            return []
        ready = self._ready
        found: list[tuple[int, int]] = []
        start = self._cursor % n
        last_idx: int | None = None
        todo = self._offsets(start, -1)
        i = 0
        while i < len(todo):
            off = todo[i]
            i += 1
            idx = (start + off) % n
            fd = order[idx]
            sock = resolve(fd)
            if sock is None:
                ready.discard(fd)  # closed without EPOLL_CTL_DEL
                continue
            if sock.ino != self._identity[fd]:
                # fd reused for a different socket: the dead registration
                # must not report that stranger's readiness
                self.stale_skipped += 1
                ready.discard(fd)
                continue
            if isinstance(sock, SocketInode):
                mask = socket_events(sock)
            else:
                mask = sock.epoll_events()
                # polling ran the ring, whose completions may have fed
                # sockets further along the scan onto the list
                todo = self._offsets(start, off)
                i = 0
            got = mask & (self.interest[fd] | EPOLLERR | EPOLLHUP)
            if got:
                found.append((fd, got))
                last_idx = idx
                if len(found) >= maxevents:
                    break
            else:
                ready.discard(fd)
        if last_idx is not None:
            self._cursor = (last_idx + 1) % n
        self.events_reported += len(found)
        return found

    # ------------------------------------------------------------ lifecycle

    def release_file(self, file) -> None:
        """Closing the epoll fd discards the interest set, drops every
        watcher and unregisters the anonymous inode (same churn-leak fix
        as socket endpoints)."""
        for fd in list(self._watched):
            self._unwatch(fd)
        self.interest.clear()
        self._identity.clear()
        self._order.clear()
        self._pos.clear()
        self._ready.clear()
        self._polled.clear()
        self.sb.drop_inode(self)
