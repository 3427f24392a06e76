"""Property tests: epoll's ready list against a full interest-set scan.

``EpollInode.collect`` visits only the fds its socket watchers fed onto
the ready list (plus uring fds, polled every wait).  The contract is that
this is unobservable: every ``epoll_wait`` reports exactly the events a
scan of the whole interest set from the fairness cursor would, leaves
the cursor in the same place, and charges the same cycles.

Two kernels run every rule in lockstep.  One uses the real ``collect``;
the other's epoll instance is switched to :func:`full_scan_collect`, the
reference below.  Rules cover connection setup, data in both directions,
draining, half-closes, close without ``EPOLL_CTL_DEL`` (so descriptor
numbers get reused under the stale registration), ADD/MOD/DEL with
EPOLLIN/EPOLLOUT interest against capped receive buffers, and a uring fd
in the interest set whose polling completes armed RECVs mid-scan.
"""

from functools import partial

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.errors import Errno
from repro.kernel import Kernel
from repro.kernel.fs import RamfsSuperBlock
from repro.kernel.net import (EPOLL_CTL_ADD, EPOLL_CTL_DEL, EPOLL_CTL_MOD,
                              EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, SHUT_RD,
                              SHUT_WR, SocketLayer)
from repro.kernel.net.epoll import socket_events
from repro.kernel.net.socket import SocketInode
from repro.kernel.uring import (F_LINK, OP_RECV, OP_SEND, Sqe, UringLayer,
                                UringQueue)

PORT = 80
RCVBUF = 32         # one or two sends fill a receive buffer


def full_scan_collect(ep, resolve, maxevents):
    """Reference: walk the whole interest set from the fairness cursor."""
    order = ep._order
    n = len(order)
    if n == 0:
        return []
    found = []
    start = ep._cursor % n
    last_idx = None
    for i in range(n):
        idx = (start + i) % n
        fd = order[idx]
        want = ep.interest.get(fd)
        if want is None:
            continue                    # tombstone
        inode = resolve(fd)
        if inode is None or inode.ino != ep._identity[fd]:
            continue                    # closed, or reused for a stranger
        if isinstance(inode, SocketInode):
            mask = socket_events(inode)
        else:
            mask = inode.epoll_events()
        ready = mask & (want | EPOLLERR | EPOLLHUP)
        if ready:
            found.append((fd, ready))
            last_idx = idx
            if len(found) >= maxevents:
                break
    if last_idx is not None:
        ep._cursor = (last_idx + 1) % n
    ep.events_reported += len(found)
    return found


class _World:
    """One kernel with a listener, an epoll set and a uring fd in it."""

    def __init__(self, cpus: int, reference: bool):
        k = Kernel(cpus=cpus)
        k.mount_root(RamfsSuperBlock(k))
        k.spawn("srv")
        SocketLayer(k, default_rcvbuf=RCVBUF)
        UringLayer(k)
        self.k = k
        sys = k.sys
        self.lfd = sys.socket(blocking=False)
        sys.bind(self.lfd, PORT)
        sys.listen(self.lfd, 4)
        self.epfd = sys.epoll_create()
        self.ep = k.current.fds[self.epfd].inode
        if reference:
            self.ep.collect = partial(full_scan_collect, self.ep)
        self.ring_fd = sys.uring_setup(8)
        self.q = UringQueue(k, self.ring_fd)
        sys.epoll_ctl(self.epfd, EPOLL_CTL_ADD, self.lfd, EPOLLIN)
        sys.epoll_ctl(self.epfd, EPOLL_CTL_ADD, self.ring_fd, EPOLLIN)


def _outcome(fn):
    try:
        return fn()
    except Errno as e:
        return ("errno", e.errno)


fd_index = st.integers(min_value=0, max_value=7)
masks = st.sampled_from([EPOLLIN, EPOLLOUT, EPOLLIN | EPOLLOUT])
#: sizes that add up to RCVBUF exactly, so buffers fill without overflow
sizes = st.sampled_from([16, 32])
#: how a new connection's ends join the interest set (None: not at all)
ends = st.tuples(st.none() | masks, st.none() | masks | st.just("backlog"))


class EpollMachine(RuleBasedStateMachine):
    """Few broad rules, each drawing its operation: Hypothesis enables a
    random subset of rules per run, and a run needs mixed operations."""

    cpus = 1

    def __init__(self):
        super().__init__()
        self.worlds = (_World(self.cpus, reference=False),
                       _World(self.cpus, reference=True))
        w = self.worlds[0]
        #: socket fds open in both worlds (identical by construction)
        self.socks: list[int] = []
        self.fixed = [w.lfd, w.ring_fd]
        self.ud = 0

    def _both(self, fn):
        """Apply ``fn(world)`` to both worlds; they must agree."""
        got = [_outcome(partial(fn, w)) for w in self.worlds]
        assert got[0] == got[1]
        assert self.worlds[0].k.clock.now == self.worlds[1].k.clock.now
        return got[0]

    def _pick(self, i, *, fixed=False):
        pool = self.socks + (self.fixed if fixed else [])
        return pool[i % len(pool)] if pool else None

    def _opened(self, fd, mask):
        if isinstance(fd, int):
            self.socks.append(fd)
            if mask is not None:
                self._both(lambda w: w.k.sys.epoll_ctl(w.epfd, EPOLL_CTL_ADD,
                                                       fd, mask))

    @staticmethod
    def _connect(w):
        fd = w.k.sys.socket(blocking=False)
        try:
            w.k.sys.connect(fd, PORT)
        except Errno:
            w.k.sys.close(fd)
            raise
        return fd

    # ------------------------------------------------------ connections

    @initialize(conns=st.lists(ends, min_size=1, max_size=3))
    def populate(self, conns):
        for e in conns:
            self.connect(e)

    @rule(e=ends)
    def connect(self, e):
        """A new connection, either end optionally registered; the
        server end may stay in the listener's backlog (EPOLLIN)."""
        client, server = e
        self._opened(self._both(self._connect), client)
        if server != "backlog":
            self._opened(self._both(lambda w: w.k.sys.accept(w.lfd)), server)

    @rule(i=fd_index, op=st.sampled_from(["send", "drain"]), n=sizes)
    def traffic(self, i, op, n):
        fd = self._pick(i)
        if fd is None:
            return
        if op == "send":
            self._both(lambda w: w.k.sys.write(fd, b"x" * n))
        else:
            self._both(lambda w: w.k.sys.read(fd, n))

    @rule(i=fd_index, op=st.sampled_from([SHUT_RD, SHUT_WR, "close"]))
    def hangup(self, i, op):
        """Half-closes, or a close without EPOLL_CTL_DEL whose freed fd
        number the next connection reuses."""
        fd = self._pick(i)
        if fd is None:
            return
        if op == "close":
            self._both(lambda w: w.k.sys.close(fd))
            self.socks.remove(fd)
        else:
            self._both(lambda w: w.k.sys.shutdown(fd, op))

    # ------------------------------------------------------------ epoll

    @rule(i=fd_index, op=st.sampled_from([EPOLL_CTL_ADD, EPOLL_CTL_MOD,
                                          EPOLL_CTL_DEL]), mask=masks)
    def ctl(self, i, op, mask):
        fd = self._pick(i, fixed=True)
        self._both(lambda w: w.k.sys.epoll_ctl(w.epfd, op, fd, mask))

    @rule(maxevents=st.integers(min_value=1, max_value=4))
    def wait(self, maxevents):
        self._both(lambda w: w.k.sys.epoll_wait(w.epfd, maxevents=maxevents,
                                                timeout=0))
        real, ref = (w.ep for w in self.worlds)
        assert real._cursor == ref._cursor

    @invariant()
    def wait_after_every_step(self):
        """A missed feed only shows once its fd was found not ready and
        then rose, so poll after every rule, not only when ``wait`` is
        drawn; then reap the ring's completions."""
        self.wait(3)
        self._both(lambda w: [(c.user_data, c.res) for c in w.q.harvest()])

    # ------------------------------------------------------------ uring

    @rule(i=fd_index, n=sizes, relay=st.none() | fd_index)
    def arm_recv(self, i, n, relay):
        """A RECV armed on an empty socket completes when the ring is
        polled — inside collect.  Its read frees receive space, and a
        linked SEND (``relay``) delivers to a socket further along the
        scan, so collect must pick up what the poll fed."""
        fd = self._pick(i)
        dst = None if relay is None else self._pick(relay)
        if fd is None or self.worlds[0].q.sq_space() < 2:
            return
        ud = self.ud
        self.ud += 2

        def go(w):
            q = w.q
            flags = F_LINK if dst is not None else 0
            q.prep(Sqe(OP_RECV, flags=flags, fd=fd, addr=q.alloc(n), len=n,
                       user_data=ud))
            if dst is not None:
                q.prep(Sqe(OP_SEND, fd=dst, addr=q.place(b"y" * n), len=n,
                           user_data=ud + 1))
            return q.submit()
        self._both(go)


class EpollMachineCpus4(EpollMachine):
    cpus = 4


_settings = settings(max_examples=100, stateful_step_count=40, deadline=None)
TestEpollReadyListCpus1 = EpollMachine.TestCase
TestEpollReadyListCpus1.settings = _settings
TestEpollReadyListCpus4 = EpollMachineCpus4.TestCase
TestEpollReadyListCpus4.settings = _settings


def test_ring_poll_feeds_sockets_later_in_the_same_wait():
    """Polling the uring fd inside collect completes an armed RECV whose
    linked SEND makes a registered socket further along the scan ready:
    that same wait must report it, as the full scan does."""
    m = EpollMachine()
    m.connect((None, None))             # pair A: socks[0] -> socks[1]
    m.connect((EPOLLIN, None))          # pair B: socks[2] registered
    m.wait_after_every_step()           # socks[2] found idle: off the list
    m.arm_recv(i=1, n=16, relay=3)      # RECV on A's server end -> SEND on B
    m.wait_after_every_step()
    m.traffic(i=0, op="send", n=16)     # A's data completes the chain...
    events = m._both(lambda w: w.k.sys.epoll_wait(w.epfd, maxevents=4,
                                                  timeout=0))
    assert (m.socks[2], EPOLLIN) in events  # ...inside this very wait
