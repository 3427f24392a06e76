"""The socket syscall surface: a loadable protocol module for the kernel.

§2.1 motivates syscall consolidation with the canonical server hot path:
"read a file from disk and send it over the network to a remote client ...
HTTP servers using these system calls report performance improvements
ranging from 92% to 116%."  §2.4 plans "new system call suites that cater
to [server] workloads".  This module supplies the substrate those claims
are measured on: stream sockets with listen/accept/connect/shutdown,
``sendfile``, ``select``, and the epoll readiness suite.  Like a loadable
protocol module, building a :class:`SocketLayer` registers it as
``kernel.net``; the ``kernel.sys`` entries for these syscalls dispatch to
its ``do_*`` handlers.

The ``do_*`` handlers are plain methods, so the Cosy kernel extension can
invoke them directly inside a compound (one trap for a whole
accept→read→open→sendfile→close request loop) exactly as it does for the
file syscalls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import (EAGAIN, EADDRINUSE, ECONNREFUSED, ECONNRESET,
                          EDEADLK, EINVAL, EISCONN, ENOTCONN, EOPNOTSUPP,
                          Errno, raise_errno)
from repro.kernel.clock import Mode
from repro.kernel.net.epoll import (EPOLL_CTL_ADD, EPOLL_CTL_DEL,
                                    EPOLL_CTL_MOD, EPOLLIN, EVENT_BYTES,
                                    EpollInode)
from repro.kernel.net.nic import MTU, Nic, Packet
from repro.kernel.net.socket import (EV_SOCK_ACCEPT, SHUT_RD, SHUT_RDWR,
                                     SHUT_WR, SockFS, SockState, SocketInode)
from repro.kernel.vfs.dentry import Dentry
from repro.kernel.vfs.file import File, O_RDWR

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel
    from repro.kernel.interrupts import TimerInterrupt


class SocketLayer:
    """The socket syscall handlers, registered as ``kernel.net``.

    Also the "network stack" object: it owns the sockfs superblock, the
    port table, and the NIC, and is the NIC's upper-half protocol handler
    (:meth:`deliver`).
    """

    def __init__(self, kernel: "Kernel", *, deliver: str = "irq",
                 default_rcvbuf: int | None = None, queues: int = 1):
        if kernel.net is not None:
            raise RuntimeError("a socket layer is already loaded")
        self.kernel = kernel
        self.sockfs = SockFS(kernel)
        self.sockfs.stack = self
        self.nic = Nic(kernel, self, deliver=deliver, queues=queues)
        #: bound ports: port -> owning socket
        self.ports: dict[int, SocketInode] = {}
        #: rcvbuf cap for stack-created sockets (None = unlimited)
        self.default_rcvbuf = default_rcvbuf
        self.pairs_created = 0
        self.connections = 0
        self.accepts = 0
        self.drops = 0
        #: connections refused with an RST (no listener, or backlog full)
        self.refused = 0
        #: refusals specifically due to a full accept backlog
        self.backlog_overflows = 0
        #: RST segments put on the wire
        self.rst_tx = 0
        #: accepted connections aborted because the acceptor was out of fds
        self.accept_emfile = 0
        kernel.net = self

    def attach_timer(self, timer: "TimerInterrupt") -> None:
        """Drive deferred (``deliver="tick"``) RX processing off the timer
        interrupt: each tick raises the NIC interrupt (NAPI-style)."""
        timer.register_handler(self.nic.kick)

    # ------------------------------------------------------------- helpers

    def _sock_for(self, fd: int) -> SocketInode:
        file = self.kernel.sys._file_for(fd)
        inode = file.inode
        if not isinstance(inode, SocketInode):
            raise_errno(EOPNOTSUPP, f"fd {fd} is not a socket")
        return inode

    def _epoll_for(self, fd: int) -> EpollInode:
        file = self.kernel.sys._file_for(fd)
        inode = file.inode
        if not isinstance(inode, EpollInode):
            raise_errno(EINVAL, f"fd {fd} is not an epoll instance")
        return inode

    def _alloc_sock_fd(self, sock: SocketInode) -> int:
        return self.kernel.current.alloc_fd(
            File(Dentry(f"sock:{sock.ino}", None, sock), O_RDWR))

    def _charge_op(self) -> None:
        self.kernel.clock.charge(self.kernel.costs.sock_op, Mode.SYSTEM)

    # ---------------------------------------------------- socket creation

    def do_socket(self, *, blocking: bool = True) -> int:
        """Create an unconnected stream socket; returns its fd."""
        self._charge_op()
        sock = SocketInode(self.sockfs, blocking=blocking,
                           rcvbuf=self.default_rcvbuf)
        # fd first: if the table is full (EMFILE) the inode must not stay
        # registered in sockfs with nothing referencing it.
        fd = self._alloc_sock_fd(sock)
        self.sockfs.register_inode(sock)
        return fd

    def do_socketpair(self) -> tuple[int, int]:
        """Create a connected pair; returns two fds in the current task.

        Pair endpoints are non-blocking with unlimited receive buffers —
        the loopback-pipe semantics the sendfile workloads rely on.
        """
        task = self.kernel.current
        a = SocketInode(self.sockfs)
        b = SocketInode(self.sockfs)
        a.state = b.state = SockState.ESTABLISHED
        a.peer, b.peer = b, a
        self.sockfs.register_inode(a)
        self.sockfs.register_inode(b)
        self.pairs_created += 1
        fd_a = task.alloc_fd(File(Dentry(f"sock:{a.ino}", None, a), O_RDWR))
        fd_b = task.alloc_fd(File(Dentry(f"sock:{b.ino}", None, b), O_RDWR))
        return fd_a, fd_b

    # ------------------------------------------------- connection plumbing

    def do_bind(self, fd: int, port: int) -> int:
        sock = self._sock_for(fd)
        if sock.state is not SockState.FRESH:
            raise_errno(EINVAL, "bind on a connected/listening socket")
        if port <= 0:
            raise_errno(EINVAL, f"bad port {port}")
        if port in self.ports:
            raise_errno(EADDRINUSE, f"port {port}")
        self._charge_op()
        self.ports[port] = sock
        sock.port = port
        return 0

    def do_listen(self, fd: int, backlog: int = 128) -> int:
        sock = self._sock_for(fd)
        if sock.port is None:
            raise_errno(EINVAL, "listen before bind")
        if sock.state is not SockState.FRESH:
            raise_errno(EINVAL, "listen on a connected socket")
        self._charge_op()
        sock.state = SockState.LISTENING
        sock.backlog = max(1, int(backlog))
        return 0

    def do_connect(self, fd: int, port: int) -> int:
        sock = self._sock_for(fd)
        if sock.state is SockState.ESTABLISHED:
            raise_errno(EISCONN, "already connected")
        if sock.state is not SockState.FRESH:
            raise_errno(EINVAL, f"connect in state {sock.state.value}")
        self._charge_op()
        sock.state = SockState.CONNECTING
        self.connections += 1
        self.nic.transmit(Packet("syn", sock, None, port=port), site="syn")
        # Loopback handshake: resolve synchronously (deferred-delivery mode
        # pumps the device here; there is no remote host to wait for).
        while (sock.state is SockState.CONNECTING and not sock.reset
               and not sock.connect_refused):
            if not self.nic.kick():
                break
        if sock.connect_refused:
            sock.state = SockState.CLOSED
            raise_errno(ECONNREFUSED, f"port {port}")
        if sock.reset:
            raise_errno(ECONNRESET, "connection reset during handshake")
        if sock.state is not SockState.ESTABLISHED:
            raise_errno(EAGAIN, "handshake still in flight")
        return 0

    def do_accept(self, fd: int) -> int:
        listener = self._sock_for(fd)
        if listener.state is not SockState.LISTENING:
            raise_errno(EINVAL, "accept on a non-listening socket")
        while not listener.accept_queue:
            if not listener.blocking:
                raise_errno(EAGAIN, "accept queue empty")
            listener.wq.sleep("sock:accept")
            if not self.nic.kick():
                raise_errno(EDEADLK,
                            "blocking accept with no connection in flight")
        with self.kernel.irq.irqs_off("sock:accept"):
            with listener.rxq_lock.guard("sock:accept"):
                child = listener.accept_queue.popleft()
        self._charge_op()
        try:
            child_fd = self._alloc_sock_fd(child)
        except Errno:
            # The child was already ESTABLISHED when it left the backlog;
            # with no fd it would leak and wedge the peer forever.  Abort
            # the connection like a real kernel tearing down an accept it
            # could not complete.
            self.accept_emfile += 1
            self.kernel.metrics.counter("net.accept_emfile").inc()
            self.reset_connection(child, site="accept-emfile")
            child.close_endpoint("sock:accept-emfile")
            raise
        self.accepts += 1
        self.kernel.log_event(child, EV_SOCK_ACCEPT, "sock:accept")
        return child_fd

    def do_shutdown(self, fd: int, how: int) -> int:
        sock = self._sock_for(fd)
        if how not in (SHUT_RD, SHUT_WR, SHUT_RDWR):
            raise_errno(EINVAL, f"shutdown how={how}")
        if sock.state is not SockState.ESTABLISHED:
            raise_errno(ENOTCONN, "shutdown on unconnected socket")
        self._charge_op()
        if how in (SHUT_RD, SHUT_RDWR):
            sock.rd_closed = True
            sock.wq.poll_notify()
        if how in (SHUT_WR, SHUT_RDWR) and not sock.wr_closed:
            sock.wr_closed = True
            self.send_fin(sock)
        return 0

    # ------------------------------------------------------------ sendfile

    def do_sendfile(self, out_fd: int, in_fd: int, offset: int,
                    count: int) -> int:
        """file → socket entirely in kernel mode (one trap, no uaccess)."""
        sys = self.kernel.sys
        src = sys._file_for(in_fd)
        dst = sys._file_for(out_fd)
        return self.sendfile_files(dst, src, offset, count)

    def sendfile_files(self, dst: File, src: File, offset: int,
                       count: int) -> int:
        """The sendfile body, on resolved files (shared with the uring
        SENDFILE opcode, whose input file may live in a fixed-file slot
        rather than the fd table).

        Every chunk is a preemption point, so a peer that disappears
        mid-transfer is observed: the next chunk's socket write raises
        EPIPE instead of silently short-writing.  On a *non-blocking*
        socket a full TX ring yields a short write (or EAGAIN when
        nothing was sent yet) instead of overrunning the ring — which
        would drop the packet and reset the connection.
        """
        if count < 0 or offset < 0:
            raise_errno(EINVAL, "negative sendfile offset/count")
        src.check_readable()
        dst.check_writable()
        if isinstance(src.inode, SocketInode):
            raise_errno(EINVAL, "sendfile source must be a regular file")
        dst_inode = dst.inode
        nonblock_sock = (isinstance(dst_inode, SocketInode)
                         and not dst_inode.blocking)
        sent = 0
        pos = offset
        while sent < count:
            chunk = src.inode.read(pos, min(65536, count - sent))
            if not chunk:
                break
            if nonblock_sock:
                need = (len(chunk) + MTU - 1) // MTU
                if len(self.nic.tx_ring) + need > self.nic.tx_slots:
                    if sent:
                        break
                    raise_errno(EAGAIN,
                                "TX ring full on non-blocking socket")
            self.kernel.sched.maybe_preempt()
            # in-kernel handoff: page-cache pages feed the socket directly
            self.kernel.clock.charge(
                self.kernel.costs.memcpy_cost(len(chunk)), Mode.SYSTEM)
            dst_inode.write(0, chunk)
            pos += len(chunk)
            sent += len(chunk)
        return sent

    # ------------------------------------------------------------ readiness

    def do_select(self, fds, start: int = 0, limit: int = 1) -> list[int]:
        """Scan the whole interest set; return up to ``limit`` ready fds.

        The kernel walks *every* descriptor on *every* call — the
        O(interest) cost charged here is the select half of the
        select-vs-epoll story.  The scan starts at index ``start``
        (callers keep a rotating cursor for fairness) and the reported
        set is capped at ``limit`` ready fds.
        """
        nfds = len(fds)
        if nfds == 0 or limit <= 0:
            raise_errno(EINVAL, "empty fd set / bad limit")
        sys = self.kernel.sys
        fdset_bytes = (nfds + 7) // 8
        sys.ucopy.charge_from_user(3 * fdset_bytes)  # read/write/except sets
        self.kernel.clock.charge(nfds * self.kernel.costs.select_per_fd,
                                 Mode.SYSTEM)
        self.nic.kick()
        task = self.kernel.current
        ready: list[int] = []
        for i in range(nfds):
            fd = fds[(start + i) % nfds]
            file = task.get_file(fd)
            if file is None:
                raise_errno(EINVAL, f"select on closed fd {fd}")
            inode = file.inode
            if isinstance(inode, SocketInode) and inode.readable_ready:
                ready.append(fd)
                if len(ready) >= limit:
                    break
        sys.ucopy.charge_to_user(fdset_bytes)
        return ready

    def do_epoll_create(self) -> int:
        self.kernel.clock.charge(self.kernel.costs.epoll_op, Mode.SYSTEM)
        ep = EpollInode(self.sockfs)
        self.sockfs.register_inode(ep)
        return self.kernel.current.alloc_fd(
            File(Dentry(f"epoll:{ep.ino}", None, ep), O_RDWR))

    def do_epoll_ctl(self, epfd: int, op: int, fd: int,
                     mask: int = EPOLLIN) -> int:
        ep = self._epoll_for(epfd)
        # The target must be pollable: a socket, or any inode exposing the
        # epoll_events() readiness protocol (uring fds — docs/URING.md).
        file = self.kernel.sys._file_for(fd)
        inode = file.inode
        if not isinstance(inode, SocketInode) \
                and not hasattr(inode, "epoll_events"):
            raise_errno(EOPNOTSUPP, f"fd {fd} is not pollable")
        self.kernel.clock.charge(self.kernel.costs.epoll_op, Mode.SYSTEM)
        if op == EPOLL_CTL_ADD:
            ep.ctl_add(fd, mask, inode)
        elif op == EPOLL_CTL_MOD:
            ep.ctl_mod(fd, mask, inode.ino)
        elif op == EPOLL_CTL_DEL:
            ep.ctl_del(fd)
        else:
            raise_errno(EINVAL, f"epoll_ctl op={op}")
        return 0

    def do_epoll_wait(self, epfd: int, maxevents: int = 64,
                      timeout: int = -1) -> list[tuple[int, int]]:
        """Collect ready events: O(ready) cost, unlike select's O(interest).

        ``timeout=0`` polls; ``timeout=-1`` blocks until at least one event
        is ready (EDEADLK if nothing is in flight to ever wake us).
        """
        ep = self._epoll_for(epfd)
        if maxevents <= 0:
            raise_errno(EINVAL, "maxevents must be positive")
        costs = self.kernel.costs
        self.kernel.clock.charge(costs.epoll_wait_base, Mode.SYSTEM)
        self.nic.kick()
        task = self.kernel.current

        def resolve(fd: int):
            file = task.get_file(fd)
            if file is None:
                return None
            inode = file.inode
            if isinstance(inode, SocketInode) \
                    or hasattr(inode, "epoll_events"):
                return inode
            return None

        events = ep.collect(resolve, maxevents)
        while not events and timeout != 0:
            ep.wq.sleep("epoll:wait")
            if not self.nic.kick():
                raise_errno(EDEADLK,
                            "blocking epoll_wait with nothing in flight")
            events = ep.collect(resolve, maxevents)
        ep.waits += 1
        metrics = self.kernel.metrics
        metrics.counter("epoll.waits").inc()
        metrics.counter("epoll.events").inc(len(events))
        self.kernel.clock.charge(costs.epoll_per_event * len(events),
                                 Mode.SYSTEM)
        if events:
            self.kernel.sys.ucopy.charge_to_user(len(events) * EVENT_BYTES)
        return events

    # -------------------------------------------------- NIC upper half
    # Called from softirq context (Nic.kick) for every delivered packet.

    def deliver(self, pkt: Packet) -> None:
        kind = pkt.kind
        if kind == "syn":
            self._deliver_syn(pkt)
        elif kind == "syn+ack":
            dst = pkt.dst
            if dst is not None and dst.state is SockState.CONNECTING:
                dst.state = SockState.ESTABLISHED
            if dst is not None:
                dst.wq.wake_all()
        elif kind == "rst":
            dst = pkt.dst
            if dst is None:
                return
            if dst.state is SockState.CONNECTING:
                dst.connect_refused = True
            else:
                dst.reset = True
            dst.wq.wake_all()
        elif kind == "fin":
            dst = pkt.dst
            if dst is not None:
                dst.peer_closed = True
                dst.wq.wake_all()
        elif kind == "data":
            dst = pkt.dst
            if dst is None or dst.closed or dst.rd_closed:
                self.drop_packet(pkt, "recv-on-closed")
                return
            # Queue under the socket's receive-queue lock (irqsave: this
            # runs in softirq context); drop_packet transmits an RST, so
            # it must run with the lock dropped.
            with self.kernel.irq.irqs_off("net:deliver"):
                with dst.rxq_lock.guard("net:deliver"):
                    overflow = (dst.rcvbuf is not None
                                and dst.rx_bytes + len(pkt) > dst.rcvbuf)
                    if not overflow:
                        dst.rx.append(pkt.payload)
                        dst.rx_bytes += len(pkt.payload)
            if overflow:
                self.drop_packet(pkt, "rcvbuf-overflow")
                return
            dst.wq.wake_all()

    def _deliver_syn(self, pkt: Packet) -> None:
        listener = self.ports.get(pkt.port)
        src = pkt.src
        if (listener is None or listener.state is not SockState.LISTENING
                or len(listener.accept_queue) >= listener.backlog):
            # no listener / backlog overflow: refuse the connection
            metrics = self.kernel.metrics
            self.refused += 1
            metrics.counter("net.conn_refused").inc()
            if (listener is not None
                    and listener.state is SockState.LISTENING):
                self.backlog_overflows += 1
                metrics.counter("net.backlog_overflow").inc()
            self.rst_tx += 1
            metrics.counter("net.rst_tx").inc()
            self.nic.transmit(Packet("rst", None, src), site="syn-refused")
            return
        child = SocketInode(self.sockfs, blocking=listener.blocking,
                            rcvbuf=listener.rcvbuf)
        child.state = SockState.ESTABLISHED
        self.sockfs.register_inode(child)
        child.peer = src
        if src is not None:
            src.peer = child
        with self.kernel.irq.irqs_off("net:deliver-syn"):
            with listener.rxq_lock.guard("net:deliver-syn"):
                listener.accept_queue.append(child)
        listener.wq.wake_all()
        self.nic.transmit(Packet("syn+ack", child, src), site="syn+ack")

    # ------------------------------------------------------- stack services

    def send_data(self, sock: SocketInode, data: bytes) -> None:
        """Segment a stream write into MTU-sized packets and transmit."""
        peer = sock.peer
        for off in range(0, len(data), MTU):
            ok = self.nic.transmit(
                Packet("data", sock, peer, payload=data[off:off + MTU]),
                site="data")
            if not ok or sock.reset:
                raise_errno(ECONNRESET, "connection reset (packet dropped)")

    def send_fin(self, sock: SocketInode) -> None:
        """Tell the peer no more data is coming (drop ⇒ reset, no raise)."""
        self.nic.transmit(Packet("fin", sock, sock.peer), site="fin")

    def wait_readable(self, sock: SocketInode) -> None:
        """Block until data/EOF/reset arrives; the NIC pump is the waker."""
        while True:
            if sock.rx or sock.peer_closed or sock.reset:
                return
            sock.wq.sleep("sock:read")
            if not self.nic.kick():
                raise_errno(EDEADLK,
                            "blocking read with no data in flight")

    def reset_connection(self, sock: SocketInode, site: str = "?") -> None:
        """Abort both ends of a connection (RST semantics)."""
        for s in (sock, sock.peer):
            if s is None or s.reset:
                continue
            s.reset = True
            s.wq.wake_all()

    def drop_packet(self, pkt: Packet, why: str) -> None:
        """Account a dropped packet and reset the affected connection."""
        from repro.kernel.net.socket import EV_SOCK_DROP
        self.drops += 1
        self.nic.count_drop()
        obj = pkt.dst if pkt.dst is not None else pkt.src
        if obj is not None:
            self.kernel.log_event(obj, EV_SOCK_DROP, f"net:{why}")
        for s in (pkt.src, pkt.dst):
            if s is not None:
                self.reset_connection(s, site=why)

    def release_port(self, port: int, sock: SocketInode) -> None:
        if self.ports.get(port) is sock:
            del self.ports[port]
