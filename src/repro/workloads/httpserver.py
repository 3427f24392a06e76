"""Concurrent HTTP serving, four ways: select, epoll, Cosy compounds, rings.

This is the paper's server story (§2.1/§2.4) run against *many* clients on
the simulated network stack, instead of one socketpair.  Per request every
server does the same work — accept the connection, read the request, open
the file, sendfile it, close the file — but they differ in how much of the
user/kernel boundary they cross to do it:

* :class:`SelectHttpServer` — classic select-per-request loop.  Every
  request pays one ``select`` over the *entire* interest set (the kernel
  rescans all N registered fds), plus the accept/read/open/sendfile/close
  traps.  With keep-alive connections the interest set grows with the
  client count, so per-request cost grows O(N).
* :class:`EpollHttpServer` — event loop over ``epoll_wait``.  Readiness
  is O(ready), batched up to 64 events per trap; per-request cost is flat
  no matter how many idle connections are registered.
* :class:`CosyHttpServer` — the whole request loop is one Cosy compound:
  ``accept → read → open → sendfile → close`` for a wave of clients runs
  in a single ``cosy_exec`` trap, with the request bytes landing in the
  shared buffer (no uaccess).  Crossings per request approach zero.
* :class:`UringHttpServer` — async syscall rings (docs/URING.md).  Each
  request is a linked SQE chain ``recv → openat → sendfile → close``
  submitted through shared rings; a multishot accept feeds new
  connections without rearming.  In enter mode one ``uring_enter`` trap
  moves a whole batch; with sqpoll (the default on SMP kernels) a
  kernel-side poller consumes submissions and the serving phase makes
  *zero* boundary crossings.  Like Cosy it is a zero-copy pipeline
  server: request bytes land in the shared data area and the kernel reads
  the path straight out of them, so user space never parses the request
  (no ``REQUEST_PARSE_CYCLES``) — but unlike Cosy there is no program to
  encode or interpret, just fixed-size entries.

Every server is hardened: EOF, resets, mid-transfer hangups, garbled
requests, ``EMFILE`` on accept and fault-aborted compounds reap the
connection and count an error, at no simulated cost on the happy path.
``serve_wave(n)`` is the bench loop (serve ``n`` queued keep-alive
requests); ``pump()`` is the scenario suite's overload loop (serve until
nothing is pending), or ``serve_one()`` for the compound server, which
closes each connection.  Select and uring keep
two loops because their syscall order is measured behaviour; epoll's
``serve_wave(n)`` is ``pump(n)``.

One harness drives every kind.  It splits the clients into shards,
serves shard *c* on CPU *c* behind its own listener, and measures each
CPU's serving time, so a result carries per-CPU, serialized and wall
cycles alike.  The entry point picks the shard count:
:func:`run_http_bench` serves one shard, :func:`run_http_bench_smp` one
per CPU.  The shard count also picks the task layout.  One shard is
served by the calling task, with the client task spawned after setup.
Several shards each get a server and a client task pinned to their CPU,
both spawned before setup.  Both layouts are kept because the pinned
observer oracles (``tests/trace/test_observer_oracles.py``) and E11's
attribution record spawns and wakeups exactly.

``benchmarks/bench_net.py`` sweeps the client count to reproduce the
crossings-dominate curve (E11) and the core count for the sharded curves
(E13/E14); the differential test asserts all four serve byte-identical
responses.

Protocol: one request per connection, ``b"GET <path>\\0"`` (NUL-terminated
so the Cosy compound can reuse its request region), response is the raw
file body; in the bench loop connections are kept alive (never closed by
the server), which is what makes select's interest set grow.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.core.cosy.compound import CompoundBuilder, CompoundFault
from repro.core.cosy.kernel_ext import CosyKernelExtension
from repro.core.cosy.ops import Arg
from repro.core.cosy.shared_buffer import SharedBuffer
from repro.errors import EAGAIN, ECANCELED, EMFILE, Errno
from repro.kernel.clock import Mode
from repro.kernel.net import EPOLL_CTL_ADD, EPOLLIN
from repro.kernel.uring import (F_FIXED_FILE, F_LINK, F_MULTISHOT, OP_ACCEPT,
                                OP_CLOSE, OP_OPENAT, OP_RECV, OP_SENDFILE,
                                Sqe, UringLayer, UringQueue)
from repro.kernel.vfs.file import O_RDONLY
from repro.workloads.webserver import (REQUEST_PARSE_CYCLES, WebServerConfig,
                                       build_docroot)

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel

SERVER_KINDS = ("select", "epoll", "cosy", "uring")

#: size of the fixed request region ("GET " + path + NUL must fit)
REQUEST_BYTES = 64


@dataclass
class HttpBenchConfig:
    """One bench scenario: ``nclients`` one-request keep-alive clients."""

    nclients: int = 100
    nfiles: int = 16
    avg_file_bytes: int = 4096
    #: clients connect in waves of this size; must not exceed ``backlog``
    wave: int = 128
    backlog: int = 128
    port: int = 80
    docroot: str = "/www"
    seed: int = 4242


@dataclass
class HttpBenchResult:
    """Serving-phase metrics for one (server kind, nclients) run.

    Serving cycles are kept per CPU; the serialized total and the wall
    time are derived from them (sum and frontier rules, docs/SMP.md).
    """

    kind: str
    nclients: int
    requests: int = 0
    bytes_served: int = 0
    #: serving-phase cycles per CPU, one entry per kernel CPU
    per_cpu_elapsed: list = field(default_factory=list)
    user_cycles: int = 0
    system_cycles: int = 0
    syscalls: int = 0         # boundary crossings, serving phase only
    digest: str = ""          # sha256 over every client's drained bytes
    shard_requests: list = field(default_factory=list)
    nic: dict = field(default_factory=dict)

    @property
    def elapsed(self) -> int:
        """Serving cycles, serialized: the sum over CPUs."""
        return sum(self.per_cpu_elapsed)

    #: the serialized total under its sharding name
    total_elapsed = elapsed

    @property
    def wall_elapsed(self) -> int:
        """Simulated wall time of the serving phase: the busiest CPU."""
        return max(self.per_cpu_elapsed, default=0)

    @property
    def speedup(self) -> float:
        """Parallel speedup over running the same work on one CPU."""
        return self.elapsed / max(self.wall_elapsed, 1)

    @property
    def throughput(self) -> float:
        """Aggregate simulated throughput: requests per wall cycle."""
        return self.requests / max(self.wall_elapsed, 1)

    @property
    def cycles_per_request(self) -> float:
        return self.elapsed / max(self.requests, 1)

    @property
    def syscalls_per_request(self) -> float:
        return self.syscalls / max(self.requests, 1)


def _request_for(path: str) -> bytes:
    req = b"GET " + path.encode() + b"\0"
    if len(req) > REQUEST_BYTES:
        raise ValueError(f"request for {path!r} exceeds {REQUEST_BYTES} bytes")
    return req


class _HttpServerBase:
    """Listener setup, connection tracking, and the per-request file work
    shared by all servers.  The loops count progress in :attr:`requests`.
    """

    def __init__(self, kernel: "Kernel", cfg: HttpBenchConfig):
        self.kernel = kernel
        self.cfg = cfg
        self.listen_fd = -1
        self.requests = 0
        self.bytes_served = 0
        #: requests or connections lost to a misbehaving peer or a fault
        self.errors = 0

    def setup(self) -> None:
        sys = self.kernel.sys
        self.listen_fd = sys.socket(blocking=False)
        sys.bind(self.listen_fd, self.cfg.port)
        sys.listen(self.listen_fd, self.cfg.backlog)

    def _accept_pending(self) -> int:
        """Drain the accept queue; returns backlog entries consumed."""
        sys = self.kernel.sys
        consumed = 0
        while True:
            try:
                conn = sys.accept(self.listen_fd)
            except Errno as exc:
                if exc.errno == EAGAIN:
                    break
                if exc.errno == EMFILE:
                    # the kernel tore the child down (accept-emfile path);
                    # the backlog entry is consumed, keep draining
                    consumed += 1
                    continue
                raise
            self._track(conn)
            consumed += 1
        return consumed

    def _serve_conn(self, conn: int) -> None:
        """One request on a readable connection, user-level style."""
        sys = self.kernel.sys
        try:
            req = sys.read(conn, REQUEST_BYTES)
        except Errno:
            self._reap(conn)
            return
        if not req:
            # readable with no data ⇒ EOF/HUP: the peer is gone
            self._reap(conn)
            return
        self.kernel.clock.charge(REQUEST_PARSE_CYCLES, Mode.USER)
        path = req[4:].split(b"\0", 1)[0].decode(errors="replace")
        try:
            fd = sys.open(path, O_RDONLY)
        except Errno:
            self.errors += 1      # truncated/garbled request line
            self._reap(conn)
            return
        try:
            self.bytes_served += sys.sendfile(conn, fd, 0, 1 << 30)
        except Errno:
            self.errors += 1      # peer hung up (or a fault storm) mid-send
            self._reap(conn)
            return
        finally:
            sys.close(fd)
        self.requests += 1

    def _track(self, conn: int) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _reap(self, conn: int) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def live_conns(self) -> list[int]:
        """Connections the server tracks, for :meth:`close` (a compound
        server tracks none: its connections live inside the kernel)."""
        return []

    def _server_fds(self) -> list[int]:
        """The server's own descriptors, in the order :meth:`close` drops
        them."""
        return [self.listen_fd]

    def close(self) -> None:
        """Close every live connection, then the server's own fds."""
        sys = self.kernel.sys
        for fd in self.live_conns():
            try:
                sys.close(fd)
            except Errno:
                pass
        for fd in self._server_fds():
            sys.close(fd)

    def serve_wave(self, n: int) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SelectHttpServer(_HttpServerBase):
    """select-per-request: every request rescans the whole interest set."""

    def __init__(self, kernel: "Kernel", cfg: HttpBenchConfig):
        super().__init__(kernel, cfg)
        self.fds: list[int] = []            # [listener] + all live conns
        self._index: dict[int, int] = {}    # fd -> position in self.fds

    def setup(self) -> None:
        super().setup()
        self.fds = [self.listen_fd]
        self._index = {self.listen_fd: 0}

    def _track(self, conn: int) -> None:
        self._index[conn] = len(self.fds)
        self.fds.append(conn)

    def _reap(self, conn: int) -> None:
        self.kernel.sys.close(conn)
        self.fds = [fd for fd in self.fds if fd != conn]
        self._index = {fd: i for i, fd in enumerate(self.fds)}

    def live_conns(self) -> list[int]:
        return self.fds[1:]

    def serve_wave(self, n: int) -> None:
        """Serve ``n`` queued requests (the bench loop)."""
        sys = self.kernel.sys
        goal = self.requests + n
        pos = 0
        while self.requests < goal:
            # the classic loop: select over the whole set, walk the ready
            # fds it reported.  No per-connection registration syscalls —
            # select's small-N advantage — but every call rescans all N
            # descriptors, which is what sinks it at large N.  The scan
            # resumes after the last fd served, so no connection starves.
            ready = sys.select(self.fds, start=pos, limit=64)
            if not ready:
                raise RuntimeError("select found nothing with work pending")
            for fd in ready:
                if fd == self.listen_fd:
                    self._accept_pending()
                else:
                    self._serve_conn(fd)
            pos = (self._index[ready[-1]] + 1) % len(self.fds)

    def pump(self) -> int:
        """Serve until nothing is pending (the scenario loop: accept
        first, then scan from the start); returns requests served."""
        sys = self.kernel.sys
        start = self.requests
        while True:
            progressed = self._accept_pending() > 0
            for fd in sys.select(self.fds, start=0, limit=64):
                if fd != self.listen_fd:
                    self._serve_conn(fd)
                    progressed = True
            if not progressed:
                return self.requests - start


class EpollHttpServer(_HttpServerBase):
    """Event loop: readiness is registered once, reported O(ready).

    Reaping closes the connection *without* EPOLL_CTL_DEL on purpose:
    descriptor reuse across churn is exactly the stale-registration edge
    the epoll identity tracking has to survive."""

    def __init__(self, kernel: "Kernel", cfg: HttpBenchConfig):
        super().__init__(kernel, cfg)
        self.epfd = -1
        self._conns: set[int] = set()

    def setup(self) -> None:
        super().setup()
        sys = self.kernel.sys
        self.epfd = sys.epoll_create()
        sys.epoll_ctl(self.epfd, EPOLL_CTL_ADD, self.listen_fd, EPOLLIN)

    def _track(self, conn: int) -> None:
        self.kernel.sys.epoll_ctl(self.epfd, EPOLL_CTL_ADD, conn, EPOLLIN)
        self._conns.add(conn)

    def _reap(self, conn: int) -> None:
        self.kernel.sys.close(conn)
        self._conns.discard(conn)

    def live_conns(self) -> list[int]:
        return sorted(self._conns)

    def _server_fds(self) -> list[int]:
        return [self.epfd, self.listen_fd]

    def serve_wave(self, n: int) -> None:
        """Serve ``n`` queued requests (the bench loop)."""
        if self.pump(n) < n:
            raise RuntimeError("epoll found nothing with work pending")

    def pump(self, limit: int | None = None) -> int:
        """Serve until nothing is pending, or until ``limit`` requests
        are done; returns requests served."""
        sys = self.kernel.sys
        start = self.requests
        while limit is None or self.requests - start < limit:
            events = sys.epoll_wait(self.epfd, maxevents=64, timeout=0)
            progressed = False
            for fd, _mask in events:
                if fd == self.listen_fd:
                    progressed = self._accept_pending() > 0 or progressed
                else:
                    self._serve_conn(fd)
                    progressed = True
            if not progressed:
                break
        return self.requests - start


class CosyHttpServer(_HttpServerBase):
    """The request loop as one in-kernel compound per wave of clients.

    ``accept → read → open → sendfile → close`` for all ``n`` queued
    connections runs inside a single ``cosy_exec`` trap; the request line
    lands in the shared buffer (kernel-side memcpy, no uaccess) and the
    path is read back out of it C-string-style by the ``open`` op.
    :meth:`serve_one` also closes the connection in the compound (churn
    would otherwise leak one server-side fd per request).
    """

    #: compound slot layout (for fault cleanup)
    _SLOT_CONN, _SLOT_FD = 1, 2

    def __init__(self, kernel: "Kernel", cfg: HttpBenchConfig):
        super().__init__(kernel, cfg)
        self.ext: CosyKernelExtension | None = None
        self.shared: SharedBuffer | None = None
        self.req_off = 0
        #: (wave size, close_conn) -> compound bytes
        self._encoded: dict[tuple[int, bool], bytes] = {}

    def setup(self) -> None:
        super().setup()
        self.ext = CosyKernelExtension(self.kernel)
        self.shared = SharedBuffer(self.kernel, self.kernel.current, 4096)
        self.req_off = self.shared.alloc(REQUEST_BYTES)

    def _compound(self, n: int, close_conn: bool) -> bytes:
        encoded = self._encoded.get((n, close_conn))
        if encoded is not None:
            return encoded
        b = CompoundBuilder()
        cnt = b.slot("n")
        conn = b.slot("conn")
        fd = b.slot("fd")
        sent = b.slot("sent")
        nread = b.slot("nread")
        rc = b.slot("rc")  # dump for close's result (dst defaults to slot 0)
        b.mov(cnt, Arg.lit(n))
        top = b.label("top")
        done = b.label("done")
        b.place(top)
        b.syscall("accept", Arg.lit(self.listen_fd), out=conn)
        b.syscall("read", Arg.slot(conn),
                  Arg.shared(self.req_off, REQUEST_BYTES),
                  Arg.lit(REQUEST_BYTES), out=nread)
        b.syscall("open", Arg.shared(self.req_off + 4, REQUEST_BYTES - 4),
                  Arg.lit(O_RDONLY), out=fd)
        b.syscall("sendfile", Arg.slot(conn), Arg.slot(fd),
                  Arg.lit(0), Arg.lit(1 << 30), out=sent)
        b.syscall("close", Arg.slot(fd), out=rc)
        if close_conn:
            b.syscall("close", Arg.slot(conn), out=rc)
        b.math("-", cnt, Arg.slot(cnt), Arg.lit(1))
        b.jz(Arg.slot(cnt), done)
        b.jmp(top)
        b.place(done)
        encoded = b.encode()
        self._encoded[(n, close_conn)] = encoded
        return encoded

    def _execute(self, encoded: bytes) -> None:
        # user side forms (or reuses) the compound buffer
        self.kernel.clock.charge(
            int(len(encoded) * self.kernel.costs.user_touch_per_byte),
            Mode.USER)
        self.ext.execute(self.kernel.current, encoded, self.shared)

    def serve_wave(self, n: int) -> None:
        """Serve ``n`` queued connections, keep-alive (the bench loop)."""
        self._execute(self._compound(n, close_conn=False))
        self.requests += n

    def serve_one(self) -> int:
        """Serve exactly one queued connection and close it; returns 1
        when the request completed."""
        encoded = self._compound(1, close_conn=True)
        try:
            self._execute(encoded)
        except CompoundFault as cf:
            # partial-failure cleanup: close whatever the compound had
            # open when the faulting op aborted it
            self.errors += 1
            if cf.op_name != "accept":
                sys = self.kernel.sys
                open_slots = [self._SLOT_CONN]
                if cf.op_name in ("sendfile", "close"):
                    open_slots.insert(0, self._SLOT_FD)
                for slot in open_slots:
                    try:
                        sys.close(cf.slots[slot])
                    except Errno:
                        pass
            return 0
        self.requests += 1
        return 1


class UringHttpServer(_HttpServerBase):
    """The request loop as linked SQE chains on async syscall rings.

    Per connection (fed by one armed multishot accept) the server
    submits ``RECV → OPENAT → SENDFILE → CLOSE`` as an ``F_LINK`` chain:
    the request lands in the connection's slot of the shared data area,
    OPENAT reads the path straight out of it (kernel-side, zero copies,
    no user-space parse), SENDFILE streams the file into the connection
    through the fixed-file slot the OPENAT filled, and CLOSE drops it.
    The chain tail runs synchronously once the RECV fires, so a single
    fixed-file slot serves every in-flight request.
    Under churn, failed ops are routine (RECV completes 0 or
    ``-ECONNRESET``, a failed link cancels its chain's rest with
    ``-ECANCELED``); each failure reaps the connection.
    """

    #: user_data low bits tag the op; high bits carry the connection fd
    TAG_ACCEPT, TAG_RECV, TAG_OPEN, TAG_SENDFILE, TAG_CLOSE = range(5)

    def __init__(self, kernel: "Kernel", cfg: HttpBenchConfig):
        super().__init__(kernel, cfg)
        self.ring_fd = -1
        self.q: UringQueue | None = None
        #: recycled request buffers: a chain's buffer is live only from
        #: prep until its CLOSE completes, so the working set is bounded
        #: by in-flight chains (≤ SQ size), not by client count — the
        #: same few hot pages per wave no matter how many clients, like
        #: Cosy's single request region.
        self._pool: list[int] = []
        self._bufs: dict[int, int] = {}       # conn fd -> data-area offset
        self._conns: set[int] = set()

    def setup(self) -> None:
        super().setup()
        sys = self.kernel.sys
        if self.kernel.uring is None:
            UringLayer(self.kernel)
        sq = 4 * self.cfg.wave + 8
        data = (2 * self.cfg.wave + 16) * REQUEST_BYTES
        # Kernel-side submission poller on SMP kernels, where it has its
        # own runqueue to live on; enter mode on uniprocessors, where
        # polling would steal the very CPU the server needs.
        self.ring_fd = sys.uring_setup(sq, cq_entries=2 * sq, files=4,
                                       data_bytes=data,
                                       sqpoll=self.kernel.ncpus > 1,
                                       sq_idle=64)
        self.q = UringQueue(self.kernel, self.ring_fd)
        # one armed multishot accept feeds connections for the whole run;
        # this setup-time enter is the last *required* trap in sqpoll mode
        self.q.prep(Sqe(OP_ACCEPT, fd=self.listen_fd, flags=F_MULTISHOT,
                        user_data=self.TAG_ACCEPT))
        self.q.enter()

    def _chain(self, conn: int) -> None:
        """Queue one request chain for an accepted connection."""
        q = self.q
        while q.sq_space() < 4:       # whole chains only: never split one
            q.submit()
        buf = self._bufs.get(conn)
        if buf is None:
            buf = self._pool.pop() if self._pool else q.alloc(REQUEST_BYTES)
            self._bufs[conn] = buf
        ud = conn << 3
        q.prep(Sqe(OP_RECV, flags=F_LINK, fd=conn, addr=buf,
                   len=REQUEST_BYTES, user_data=ud | self.TAG_RECV))
        q.prep(Sqe(OP_OPENAT, flags=F_LINK, fd=0, off=O_RDONLY,
                   addr=buf + 4, len=REQUEST_BYTES - 4,
                   user_data=ud | self.TAG_OPEN))
        q.prep(Sqe(OP_SENDFILE, flags=F_LINK | F_FIXED_FILE, fd=conn,
                   addr=0, off=0, len=1 << 30,
                   user_data=ud | self.TAG_SENDFILE))
        q.prep(Sqe(OP_CLOSE, flags=F_FIXED_FILE, fd=0,
                   user_data=ud | self.TAG_CLOSE))

    def _track(self, conn: int) -> None:
        self._conns.add(conn)
        self._chain(conn)

    def _reap(self, conn: int) -> None:
        if conn not in self._conns:
            return
        self._conns.discard(conn)
        buf = self._bufs.pop(conn, None)
        if buf is not None:
            self._pool.append(buf)
        try:
            self.kernel.sys.close(conn)
        except Errno:  # pragma: no cover - double close is a server bug
            pass

    def live_conns(self) -> list[int]:
        return sorted(self._conns)

    def _server_fds(self) -> list[int]:
        return [self.ring_fd, self.listen_fd]

    def _handle(self, cqe, rearm: bool) -> bool:
        """Account one completion; True when it accepted a connection
        (whose first chain is then queued, not yet submitted).

        A completed chain's CLOSE either re-arms the next request's
        chain on the same connection (``rearm``) or returns the request
        buffer to the pool, leaving the connection to its client.
        """
        tag = cqe.user_data & 7
        conn = cqe.user_data >> 3
        res = cqe.res
        if tag == self.TAG_ACCEPT:
            if res < 0:
                # EMFILE: the kernel tore the child down (accept-emfile
                # path); the multishot accept stays armed
                self.errors += 1
                return False
            self._track(res)
            return True
        if tag == self.TAG_RECV:
            if res <= 0:
                # EOF, reset, or an injected fault; the chain's rest
                # arrives as -ECANCELED CQEs right behind this one
                self._reap(conn)
        elif tag == self.TAG_OPEN:
            if res < 0 and res != -ECANCELED:
                self.errors += 1      # truncated/garbled request line
                self._reap(conn)
        elif tag == self.TAG_SENDFILE:
            if res >= 0:
                self.bytes_served += res
                self.requests += 1
            elif res != -ECANCELED:
                self.errors += 1      # peer hung up (or fault) mid-send
                self._reap(conn)
        elif res != -ECANCELED and conn in self._conns:
            # TAG_CLOSE of a chain that ran to completion
            if rearm:
                self._chain(conn)
            else:
                self._pool.append(self._bufs.pop(conn))
        return False

    def serve_wave(self, n: int) -> None:
        """Serve ``n`` queued requests (the bench loop: harvest first,
        trap only when the CQ is empty, one submit per harvested batch
        that accepted connections)."""
        q = self.q
        goal = self.requests + n
        while self.requests < goal:
            cqes = q.harvest(maxevents=64)
            if not cqes:
                # nothing harvestable without kernel help: flush armed
                # ops / pump the NIC in one trap (sqpoll steady state
                # never gets here — harvest runs the poller inline)
                q.enter(min_complete=1)
                continue
            prepped = False
            for cqe in cqes:
                prepped = self._handle(cqe, rearm=False) or prepped
            if prepped:
                q.submit()

    def pump(self) -> int:
        """Serve until nothing is pending (the scenario loop: keep-alive,
        one enter per round); returns requests served."""
        q = self.q
        start = self.requests
        while True:
            try:
                # one trap flushes armed accepts/recvs, the CQ-overflow
                # backlog, and any chains _handle re-armed last round
                q.enter()
            except Errno:
                self.errors += 1
            cqes = q.harvest(maxevents=64)
            if not cqes:
                return self.requests - start
            for cqe in cqes:
                self._handle(cqe, rearm=True)


_SERVERS = {
    "select": SelectHttpServer,
    "epoll": EpollHttpServer,
    "cosy": CosyHttpServer,
    "uring": UringHttpServer,
}


def run_http_bench(kernel: "Kernel", kind: str,
                   cfg: HttpBenchConfig) -> HttpBenchResult:
    """Serve ``cfg.nclients`` clients with one server: the calling task.

    ``kernel`` must be freshly booted with a mounted root and one running
    task, which becomes the server; on an SMP kernel the whole run stays
    on that task's CPU.  Returns serving-phase metrics plus a digest over
    the bytes every client received, for differential comparison.
    """
    return _serve(kernel, kind, cfg, shards=1)


def run_http_bench_smp(kernel: "Kernel", kind: str,
                       cfg: HttpBenchConfig) -> HttpBenchResult:
    """Shard ``cfg.nclients`` across every CPU, one server per CPU.

    CPU *c* serves on port ``cfg.port + c``; the NIC's RSS steering keeps
    each listener's SYNs on its own RX queue, so the kernel's
    ``SocketLayer`` should be built with ``queues=kernel.ncpus``.  On a
    one-CPU kernel this is :func:`run_http_bench`.
    """
    return _serve(kernel, kind, cfg, shards=kernel.ncpus)


def _serve(kernel: "Kernel", kind: str, cfg: HttpBenchConfig,
           shards: int) -> HttpBenchResult:
    """The serving harness: ``cfg.nclients`` split into ``shards`` shares,
    share *c* served on CPU *c*, one shard after another.

    Clients connect in waves of ``cfg.wave``; only the serving phase is
    measured, so the client-side driving cost (identical across kinds)
    stays out of the comparison.  Shard costs land on their own CPUs'
    local clocks, so the result's wall time is the busiest CPU's serving
    time (the frontier rule, docs/SMP.md).
    """
    if kind not in _SERVERS:
        raise ValueError(f"unknown server kind {kind!r}")
    if kernel.current is None:
        raise RuntimeError("the HTTP bench needs a running task")
    sys = kernel.sys
    clock = kernel.clock
    web_cfg = WebServerConfig(nfiles=cfg.nfiles,
                              avg_file_bytes=cfg.avg_file_bytes,
                              docroot=cfg.docroot, seed=cfg.seed)
    paths = build_docroot(kernel, web_cfg)
    base, rem = divmod(cfg.nclients, shards)

    result = HttpBenchResult(kind=kind, nclients=cfg.nclients,
                             per_cpu_elapsed=[0] * kernel.ncpus)
    digest = hashlib.sha256()
    for c in range(shards):
        size = base + (1 if c < rem else 0)
        if size == 0:
            result.shard_requests.append(0)
            continue
        shard_cfg = replace(cfg, nclients=size, port=cfg.port + c)
        if shards == 1:
            # The caller serves, and an unpinned client task is spawned
            # after setup.  Spawning the clients first moves EPOLL_ORACLE's
            # wakeup_delay (tests/trace/test_observer_oracles.py), and an
            # httpd/0 task adds a spawn to E11's attribution in BENCH_NET.
            httpd = kernel.current
            server = _SERVERS[kind](kernel, shard_cfg)
            server.setup()
            clients = kernel.spawn("clients")
        else:
            # Both tasks are pinned to CPU c and spawned before setup;
            # serving shard 0 from the caller moves URING_SMP_ORACLE's
            # preemptoff (same file).
            httpd = kernel.spawn(f"httpd/{c}", cpu=c)
            clients = kernel.spawn(f"clients/{c}", cpu=c)
            kernel.sched.switch_to(httpd)
            server = _SERVERS[kind](kernel, shard_cfg)
            server.setup()
        # both sides hold O(size) descriptors; lift the soft limit
        for task in (httpd, clients):
            task.rlimit_nofile = max(task.rlimit_nofile, size + 64)

        client_fds: list[int] = []
        launched = 0
        while launched < size:
            wave = min(cfg.wave, size - launched)
            kernel.sched.switch_to(clients)
            for i in range(launched, launched + wave):
                fd = sys.socket(blocking=False)
                sys.connect(fd, shard_cfg.port)
                sys.write(fd, _request_for(paths[(i * shards + c)
                                                 % len(paths)]))
                client_fds.append(fd)
            launched += wave
            kernel.sched.switch_to(httpd)
            # The serving phase may spill onto other CPUs (RSS steers
            # established flows by socket ino), so measure every CPU's
            # local delta, not just shard c's.
            before = clock.percpu()
            sys0 = sys.total_syscalls
            server.serve_wave(wave)
            result.syscalls += sys.total_syscalls - sys0
            for x, (a, b) in enumerate(zip(before, clock.percpu())):
                result.per_cpu_elapsed[x] += b.elapsed - a.elapsed
                result.user_cycles += b.user - a.user
                result.system_cycles += b.system - a.system

        # differential evidence: what did each client actually receive?
        kernel.sched.switch_to(clients)
        result.bytes_served += _drain_clients(kernel, client_fds, digest)
        result.requests += server.requests
        result.shard_requests.append(server.requests)

    result.digest = digest.hexdigest()
    result.nic = _nic_stats(kernel, sharded=shards > 1)
    return result


def _drain_clients(kernel: "Kernel", fds: list[int], digest) -> int:
    """Read every client fd to EOF, folding each body (length-prefixed)
    into ``digest``; returns the bytes read."""
    sys = kernel.sys
    total = 0
    for fd in fds:
        body = bytearray()
        while True:
            chunk = sys.read(fd, 65536)
            if not chunk:
                break
            body += chunk
        digest.update(len(body).to_bytes(8, "little"))
        digest.update(bytes(body))
        total += len(body)
    return total


def _nic_stats(kernel: "Kernel", sharded: bool) -> dict:
    """The NIC counters a bench result reports; sharded runs add the RX
    queue count and NIC lock contention."""
    nic = kernel.net.nic
    stats = {
        "tx_packets": nic.tx_packets,
        "rx_packets": nic.rx_packets,
        "tx_bytes": nic.tx_bytes,
        "interrupts": nic.interrupts,
        "dropped": nic.dropped,
    }
    if sharded:
        stats.update(rx_queues=nic.nqueues,
                     lock_contentions=nic.lock.contentions,
                     lock_contention_cycles=nic.lock.contention_cycles)
    return stats
