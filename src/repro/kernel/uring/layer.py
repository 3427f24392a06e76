"""UringLayer: the async-syscall-ring syscall layer (docs/URING.md).

Building ``UringLayer(kernel)`` registers it as ``kernel.uring``, as
SocketLayer does for ``kernel.net``; two syscalls dispatch to it:

``uring_setup``
    Create a ring pair in shared memory and return a pollable fd.

``uring_enter``
    The *only* recurring trap: publish/consume a whole batch of SQEs in
    one boundary crossing, optionally blocking until ``min_complete``
    completions are available.  With sqpoll the trap disappears from the
    steady state entirely — a kernel-side poller consumes published SQEs
    from its own CPU, and user space only traps to unpark it.

Operation dispatch reuses the existing syscall bodies (``sendfile_files``,
``_open_nocopy``, ``do_close``, the socket inode data path), so every
cycle an operation costs through the classic path is costed identically
here — what uring removes is exactly the per-call trap/uaccess overhead,
never the work.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING

from repro.errors import (EBADF, ECANCELED, EDEADLK, EINVAL, EOPNOTSUPP,
                          Errno, raise_errno)
from repro.kernel.clock import Mode
from repro.kernel.net.socket import EV_SOCK_ACCEPT, SocketInode, SockState
from repro.kernel.uring.ring import (CQ_TAIL_OFF, FLAGS_OFF, RING_NEED_WAKEUP,
                                     SQ_HEAD_OFF, SQ_TAIL_OFF, Uring, UringFS,
                                     UringInode)
from repro.kernel.uring.sqe import (CQE_SIZE, F_FIXED_FILE, F_LINK,
                                    F_MULTISHOT, OP_ACCEPT, OP_CLOSE,
                                    OP_NOP, OP_OPENAT, OP_READ, OP_RECV,
                                    OP_SEND, OP_SENDFILE, OP_WRITE,
                                    SQE_SIZE, Cqe, Sqe, decode_sqe)
from repro.kernel.vfs.dentry import Dentry
from repro.kernel.vfs.file import File, O_RDWR

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel
    from repro.kernel.net.syscalls import SocketLayer


class _Armed:
    """An accept/recv waiting for its readiness condition.

    Armed ops are *poll-driven*: they are re-checked at every
    ``uring_enter``, every sqpoll iteration, and every epoll poll of the
    uring fd — there are no per-socket wakers, which keeps the ring
    entirely outside the scheduler's wait-queue machinery.
    """

    __slots__ = ("sqe", "rest", "fail", "multishot")

    def __init__(self, sqe: Sqe, rest: list[Sqe],
                 fail: tuple[int, int] | None = None):
        self.sqe = sqe
        self.rest = rest                       # F_LINK continuation
        self.fail = fail                       # injected fault in the rest
        self.multishot = bool(sqe.flags & F_MULTISHOT)


class UringLayer:
    """io_uring-style submission/completion rings for the simulated kernel.

    Not part of the kernel core: loaded explicitly, like
    :class:`~repro.kernel.net.syscalls.SocketLayer` —
    ``UringLayer(kernel)`` registers it as ``kernel.uring`` — so kernels
    that never touch uring stay bit-identical to pre-uring oracles.
    """

    def __init__(self, kernel: "Kernel"):
        if kernel.uring is not None:
            raise RuntimeError("a uring layer is already loaded")
        self.kernel = kernel
        self.fs = UringFS(kernel)
        self.rings: list[Uring] = []
        kernel.uring = self

    # ------------------------------------------------------------- helpers

    def _stack(self) -> "SocketLayer":
        stack = self.kernel.net
        if stack is None:
            raise_errno(EOPNOTSUPP, "uring needs a network stack installed")
        return stack

    def _ring_for(self, fd: int) -> Uring:
        file = self.kernel.sys._file_for(fd)
        inode = file.inode
        if not isinstance(inode, UringInode):
            raise_errno(EINVAL, f"fd {fd} is not a uring fd")
        return inode.ring

    @contextmanager
    def _as_owner(self, ring: Uring):
        """Run with the ring owner's fd table as ``kernel.current``.

        The sqpoll poller (and epoll polling another task's uring fd)
        executes in kernel context on some CPU; operations it dispatches
        must resolve descriptors against the *ring owner*, exactly like
        io_uring's ``sqo_task`` reference.
        """
        cpu = self.kernel.sched.cpus[self.kernel.clock.cpu]
        prev = cpu.current
        cpu.current = ring.owner
        try:
            yield
        finally:
            cpu.current = prev

    def _counter(self, name: str):
        return self.kernel.metrics.counter(name)

    # --------------------------------------------------------------- setup

    def do_uring_setup(self, sq_entries: int, *, cq_entries: int | None = None,
                       files: int = 16, data_bytes: int = 1 << 16,
                       sqpoll: bool = False, sq_cpu: int | None = None,
                       sq_idle: int = 16) -> int:
        """Create a ring pair; returns its (pollable) fd."""
        if sq_entries <= 0 or (cq_entries is not None and cq_entries <= 0):
            raise_errno(EINVAL, "ring entries must be positive")
        if cq_entries is None:
            cq_entries = 2 * sq_entries
        if sq_cpu is None:
            sq_cpu = self.kernel.clock.cpu
        if not 0 <= sq_cpu < self.kernel.ncpus:
            raise_errno(EINVAL, f"sq_cpu {sq_cpu} out of range")
        ring = Uring(self.kernel, self.kernel.current,
                     sq_entries=sq_entries, cq_entries=cq_entries,
                     files=files, data_bytes=data_bytes, sqpoll=sqpoll,
                     sq_cpu=sq_cpu, sq_idle=sq_idle)
        ring.layer = self
        inode = UringInode(self.fs, ring)
        fd = self.kernel.current.alloc_fd(
            File(Dentry(f"uring:{inode.ino}", None, inode), O_RDWR))
        self.fs.register_inode(inode)
        self.rings.append(ring)
        self._counter("uring.rings").inc()
        return fd

    # --------------------------------------------------------------- enter

    def do_uring_enter(self, fd: int, to_submit: int | None = None,
                       min_complete: int = 0, *, wakeup: bool = False) -> int:
        """One trap: consume published SQEs, flush armed ops, optionally
        wait for ``min_complete`` harvestable completions."""
        ring = self._ring_for(fd)
        costs = self.kernel.costs
        self.kernel.clock.charge(costs.uring_enter, Mode.SYSTEM)
        self._counter("uring.enters").inc()
        if wakeup and ring.sqpoll:
            self._unpark(ring)
        consumed = 0
        with self._as_owner(ring):
            self._flush_overflow(ring)
            self._flush_armed(ring)
            consumed = self._process(ring, to_submit)
            self._flush_armed(ring)
            while ring.cq_pending() < min_complete:
                # Block for completions: the NIC pump is the only event
                # source, exactly like blocking accept/epoll_wait.
                if not self._stack().nic.kick():
                    raise_errno(EDEADLK,
                                "uring_enter waiting with nothing in flight")
                self.kernel.clock.charge(costs.sqpoll_poll, Mode.SYSTEM)
                self._flush_armed(ring)
        return consumed

    def _unpark(self, ring: Uring) -> None:
        ring.parked = False
        ring.idle_polls = 0
        flags = ring.k_read_u32(FLAGS_OFF)
        if flags & RING_NEED_WAKEUP:
            ring.k_write_u32(FLAGS_OFF, flags & ~RING_NEED_WAKEUP)
        self._counter("uring.wakeups").inc()

    # -------------------------------------------------------------- sqpoll

    def sqpoll_run(self, ring: Uring, min_complete: int = 0) -> int:
        """One iteration of the kernel-side submission poller.

        Runs on ``ring.sq_cpu`` and charges only kernel cycles there —
        no trap, no boundary crossing.  The simulation is cooperative:
        the user library invokes the next iteration at its submit/harvest
        points, which models "the poller got around to looking" without a
        real preemptive kernel thread.
        """
        if ring.closed or ring.parked:
            return 0
        clock = self.kernel.clock
        costs = self.kernel.costs
        consumed = 0
        with clock.on_cpu(ring.sq_cpu):
            clock.charge(costs.sqpoll_poll, Mode.SYSTEM)
            self._counter("uring.sqpoll_polls").inc()
            if self.kernel.trace.enabled:
                self.kernel.trace.instant("uring:sqpoll", cat="uring",
                                          cpu=ring.sq_cpu)
            with self._as_owner(ring):
                before = ring.cq_tail + len(ring.overflow)
                self._flush_overflow(ring)
                self._flush_armed(ring)
                consumed = self._process(ring, None)
                while ring.cq_pending() < min_complete:
                    if not self._stack().nic.kick():
                        break
                    clock.charge(costs.sqpoll_poll, Mode.SYSTEM)
                    self._flush_armed(ring)
                progressed = consumed or (ring.cq_tail
                                          + len(ring.overflow)) != before
            if progressed:
                ring.idle_polls = 0
            else:
                ring.idle_polls += 1
                if ring.idle_polls >= ring.sq_idle:
                    self._park(ring)
        return consumed

    def _park(self, ring: Uring) -> None:
        """Idle poller parks: stop burning its CPU and require a real
        ``uring_enter(wakeup=True)`` trap to restart."""
        ring.parked = True
        flags = ring.k_read_u32(FLAGS_OFF)
        ring.k_write_u32(FLAGS_OFF, flags | RING_NEED_WAKEUP)
        self._counter("uring.sqpoll_parks").inc()
        if self.kernel.trace.enabled:
            self.kernel.trace.instant("uring:sqpoll", cat="uring",
                                      parked=True)

    # ---------------------------------------------------- epoll integration

    def poll_ring(self, ring: Uring) -> None:
        """Poll callback for epoll on a uring fd: give armed ops their
        chance to complete, then flush any backlogged CQEs."""
        if ring.closed:
            return
        with self._as_owner(ring):
            self._flush_overflow(ring)
            self._flush_armed(ring)

    def release_ring(self, ring: Uring) -> None:
        """Teardown on the last close of the uring fd: fixed files are
        ring references and die with it."""
        with self._as_owner(ring):
            for slot, rfd in enumerate(ring.fixed):
                if rfd < 0:
                    continue
                ring.fixed[slot] = -1
                try:
                    self.kernel.sys.do_close(rfd)
                except Errno:
                    pass  # owner already closed it through the fd table
        if ring in self.rings:
            self.rings.remove(ring)

    # ---------------------------------------------------------- submission

    def _fetch_sqe(self, ring: Uring) -> Sqe:
        """Pull one SQE off the submission queue (kernel-side access)."""
        slot = ring.sq_head % ring.sq_entries
        self.kernel.clock.charge(self.kernel.costs.uring_sqe, Mode.SYSTEM)
        raw = ring.shared.read_kernel(ring.sq_off + slot * SQE_SIZE, SQE_SIZE)
        ring.sq_head = (ring.sq_head + 1) & 0xFFFFFFFF
        return decode_sqe(raw)

    def _process(self, ring: Uring, to_submit: int | None) -> int:
        """Consume published SQEs, chain by chain.

        A ``uring.dispatch`` fault on any SQE posts its errno as that
        CQE's ``res``, cancels the rest of the chain, and stops the batch
        — unconsumed SQEs stay queued, mirroring CompoundFault's
        partial-batch semantics for Cosy programs.
        """
        tail = ring.k_read_u32(SQ_TAIL_OFF)
        avail = (tail - ring.sq_head) & 0xFFFFFFFF
        if to_submit is not None:
            avail = min(avail, to_submit)
        if not avail:
            return 0
        if self.kernel.trace.enabled:
            self.kernel.trace.instant("uring:submit", cat="uring", n=avail)
        consumed = 0
        stop = False
        while consumed < avail and not stop:
            # gather one F_LINK chain (chains never split across batches:
            # the library publishes whole chains, so a link bit on the
            # last available SQE is a malformed submission)
            chain: list[Sqe] = []
            failed: tuple[int, int] | None = None   # (chain idx, -errno)
            while True:
                sqe = self._fetch_sqe(ring)
                consumed += 1
                ring.submitted += 1
                if failed is None:
                    errno = self.kernel.faults.should_fail("uring.dispatch",
                                                           site=sqe.opname)
                    if errno is not None:
                        failed = (len(chain), -errno)
                        self._counter("uring.dispatch_errors").inc()
                chain.append(sqe)
                if not sqe.flags & F_LINK or consumed >= avail:
                    break
            self._counter("uring.sqes").inc(len(chain))
            ring.k_write_u32(SQ_HEAD_OFF, ring.sq_head)
            self._run_chain(ring, chain, fail=failed)
            if failed is not None:
                stop = True        # partial batch: leave the rest queued
        return consumed

    def _run_chain(self, ring: Uring, chain: list[Sqe],
                   fail: tuple[int, int] | None = None) -> None:
        """Execute a chain front to back; a failing link (or RECV EOF)
        cancels every follower with ECANCELED.

        ``fail`` carries an injected dispatch fault as ``(index, res)``:
        the faulted SQE completes with ``res`` instead of executing.  It
        rides along through armed-op continuations so CQEs still land in
        submission order even when an earlier link had to wait.
        """
        for i, sqe in enumerate(chain):
            rest = chain[i + 1:]
            if fail is not None and fail[0] == i:
                self._post(ring, sqe.user_data, fail[1])
                self._cancel(ring, rest)
                return
            rest_fail = None
            if fail is not None and fail[0] > i:
                rest_fail = (fail[0] - (i + 1), fail[1])
            multishot = bool(sqe.flags & F_MULTISHOT)
            if multishot and (sqe.opcode not in (OP_ACCEPT, OP_RECV)
                              or sqe.flags & F_LINK):
                self._post(ring, sqe.user_data, -EINVAL)
                self._cancel(ring, rest)
                return
            if sqe.opcode in (OP_ACCEPT, OP_RECV):
                armed = _Armed(sqe, rest, fail=rest_fail)
                if not self._try_armed(ring, armed):
                    ring.pending.append(armed)
                return                 # the armed op owns the rest
            try:
                res = self._exec(ring, sqe)
            except Errno as e:
                res = -e.errno
            self._post(ring, sqe.user_data, res)
            if res < 0:
                self._cancel(ring, rest)
                return

    def _cancel(self, ring: Uring, rest: list[Sqe]) -> None:
        for sqe in rest:
            self._post(ring, sqe.user_data, -ECANCELED)
        if rest:
            self._counter("uring.cancelled").inc(len(rest))

    # ----------------------------------------------------------- armed ops

    def _flush_armed(self, ring: Uring) -> None:
        """Re-check every armed op (the poll-driven wait model)."""
        if not ring.pending:
            return
        done = []
        for armed in list(ring.pending):
            if self._try_armed(ring, armed):
                done.append(armed)
        for armed in done:
            if armed in ring.pending:
                ring.pending.remove(armed)

    def _try_armed(self, ring: Uring, armed: _Armed) -> bool:
        """One readiness check; True when the op finished (disarm)."""
        sqe = armed.sqe
        try:
            if sqe.opcode == OP_ACCEPT:
                return self._try_accept(ring, armed)
            return self._try_recv(ring, armed)
        except Errno as e:
            self._post(ring, sqe.user_data, -e.errno)
            self._cancel(ring, armed.rest)
            return True

    def _try_accept(self, ring: Uring, armed: _Armed) -> bool:
        stack = self._stack()
        sqe = armed.sqe
        listener = self._sock(stack, sqe)
        if listener.state is not SockState.LISTENING:
            raise_errno(EINVAL, "uring accept on a non-listening socket")
        while listener.accept_queue:
            with self.kernel.irq.irqs_off("uring:accept"):
                with listener.rxq_lock.guard("uring:accept"):
                    child = listener.accept_queue.popleft()
            stack._charge_op()
            try:
                child_fd = stack._alloc_sock_fd(child)
            except Errno as e:
                # mirror do_accept: an accepted-but-undeliverable child
                # must not wedge the peer — abort the connection
                stack.accept_emfile += 1
                self._counter("net.accept_emfile").inc()
                stack.reset_connection(child, site="uring-accept-emfile")
                child.close_endpoint("uring:accept-emfile")
                self._post(ring, sqe.user_data, -e.errno,
                           more=armed.multishot)
                if armed.multishot:
                    return False       # stay armed; stop this flush
                self._cancel(ring, armed.rest)
                return True
            stack.accepts += 1
            self.kernel.log_event(child, EV_SOCK_ACCEPT, "uring:accept")
            self._post(ring, sqe.user_data, child_fd, more=armed.multishot)
            if not armed.multishot:
                self._run_chain(ring, armed.rest, fail=armed.fail)
                return True
        return False                   # multishot drains and stays armed

    def _try_recv(self, ring: Uring, armed: _Armed) -> bool:
        stack = self._stack()
        sqe = armed.sqe
        sock = self._sock(stack, sqe)
        if not (sock.rx or sock.peer_closed or sock.reset or sock.rd_closed):
            return False
        data = sock.read(0, sqe.len)   # charges sock_op + per-byte copy
        if data:
            # straight into the shared data area — in-kernel memcpy,
            # never a uaccess copyout
            ring.shared.write_kernel(sqe.addr, data)
        res = len(data)
        if armed.multishot:
            if res == 0:
                self._post(ring, sqe.user_data, 0)    # EOF: final CQE
                return True
            self._post(ring, sqe.user_data, res, more=True)
            return False
        self._post(ring, sqe.user_data, res)
        if res == 0:
            self._cancel(ring, armed.rest)            # EOF breaks the chain
        else:
            self._run_chain(ring, armed.rest, fail=armed.fail)
        return True

    def _sock(self, stack: "SocketLayer", sqe: Sqe) -> SocketInode:
        fd = sqe.fd
        if sqe.flags & F_FIXED_FILE:
            raise_errno(EINVAL, "fixed files are not sockets")
        return stack._sock_for(fd)

    # ----------------------------------------------------------- execution

    def _resolve(self, ring: Uring, fd: int, fixed: bool) -> File:
        """Map an SQE file reference (task fd or fixed-file slot) to a
        :class:`File` of the ring owner."""
        if fixed:
            real = ring.fixed_fd(fd)
            if real < 0:
                raise_errno(EBADF, f"empty fixed-file slot {fd}")
            fd = real
        return self.kernel.sys._file_for(fd)

    def _exec(self, ring: Uring, sqe: Sqe) -> int:
        """Dispatch one synchronous opcode; returns the CQE ``res``."""
        op = sqe.opcode
        fixed = bool(sqe.flags & F_FIXED_FILE)
        sys = self.kernel.sys
        if op == OP_NOP:
            return 0
        if op == OP_SEND:
            sock = self._sock(self._stack(), sqe)
            data = ring.shared.read_kernel(sqe.addr, sqe.len)
            return sock.write(0, data)
        if op == OP_SENDFILE:
            dst = sys._file_for(sqe.fd)
            src = self._resolve(ring, sqe.addr, fixed)
            return self._stack().sendfile_files(dst, src, sqe.off, sqe.len)
        if op == OP_READ:
            file = self._resolve(ring, sqe.fd, fixed)
            file.check_readable()
            data = file.inode.read(sqe.off, sqe.len)
            if data:
                ring.shared.write_kernel(sqe.addr, data)
            return len(data)
        if op == OP_WRITE:
            file = self._resolve(ring, sqe.fd, fixed)
            file.check_writable()
            data = ring.shared.read_kernel(sqe.addr, sqe.len)
            return file.inode.write(sqe.off, data)
        if op == OP_CLOSE:
            if fixed:
                real = ring.fixed_fd(sqe.fd)
                if real < 0:
                    raise_errno(EBADF, f"empty fixed-file slot {sqe.fd}")
                ring.fixed[sqe.fd] = -1
                return sys.do_close(real)
            return sys.do_close(sqe.fd)
        if op == OP_OPENAT:
            raw = ring.shared.read_kernel(sqe.addr, sqe.len)
            path = raw.split(b"\0", 1)[0].decode()
            # no charge_from_user: the path never crosses the boundary —
            # it is already in shared memory (the Cosy saving, again)
            new_fd = sys._open_nocopy(path, sqe.off)
            if sqe.fd >= 0:
                if sqe.fd >= len(ring.fixed):
                    sys.do_close(new_fd)
                    raise_errno(EBADF, f"fixed-file slot {sqe.fd} out of range")
                old = ring.fixed[sqe.fd]
                ring.fixed[sqe.fd] = new_fd
                if old >= 0:
                    sys.do_close(old)
            return new_fd
        raise_errno(EINVAL, f"unknown uring opcode {op}")

    # ----------------------------------------------------------- completion

    def _flush_overflow(self, ring: Uring) -> None:
        if not ring.overflow:
            return
        with self.kernel.irq.irqs_off("uring:cq"):
            with ring.lock.guard("uring:cq"):
                self._drain_overflow_locked(ring)

    def _drain_overflow_locked(self, ring: Uring) -> None:
        while ring.overflow and ring.cq_space() > 0:
            self._publish_locked(ring, ring.overflow.popleft())

    def _publish_locked(self, ring: Uring, cqe: Cqe) -> None:
        slot = ring.cq_tail % ring.cq_entries
        self.kernel.clock.charge(self.kernel.costs.uring_cqe, Mode.SYSTEM)
        ring.shared.write_kernel(ring.cq_off + slot * CQE_SIZE, cqe.encode())
        ring.cq_tail = (ring.cq_tail + 1) & 0xFFFFFFFF
        ring.k_write_u32(CQ_TAIL_OFF, ring.cq_tail)

    def _post(self, ring: Uring, user_data: int, res: int,
              more: bool = False) -> None:
        """Publish one CQE (overflow backlog keeps completions lossless
        when the user is slow to harvest)."""
        from repro.kernel.uring.sqe import CQE_F_MORE
        cqe = Cqe(user_data, res, CQE_F_MORE if more else 0)
        with self.kernel.irq.irqs_off("uring:cq"):
            with ring.lock.guard("uring:cq"):
                self._drain_overflow_locked(ring)
                if ring.overflow or ring.cq_space() <= 0:
                    ring.overflow.append(cqe)
                    self._counter("uring.cq_overflows").inc()
                else:
                    self._publish_locked(ring, cqe)
        ring.completed += 1
        self._counter("uring.cqes").inc()
        if self.kernel.trace.enabled:
            self.kernel.trace.instant("uring:complete", cat="uring",
                                      res=res)
