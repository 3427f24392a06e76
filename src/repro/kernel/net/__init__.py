"""Simulated network stack: sockets, NIC, readiness, syscall surface.

Layering (top to bottom; see docs/NETWORK.md):

* :class:`SocketLayer` — the ``do_*`` handlers behind ``kernel.sys``'s
  socket entries (registered as ``kernel.net``), the port table, and the
  protocol upper half fed by the NIC softirq;
* :class:`SocketInode` / :class:`EpollInode` — VFS objects behind socket
  and epoll fds;
* :class:`Nic` — TX/RX descriptor rings, hardirq/softirq delivery, and
  the per-packet/per-byte cost accounting.

``from repro.kernel.net import SocketLayer`` remains the one-line way to
load the whole stack onto a kernel, as it was when this package was a
single socketpair module.
"""

from repro.kernel.net.epoll import (EPOLL_CTL_ADD, EPOLL_CTL_DEL,
                                    EPOLL_CTL_MOD, EPOLLERR, EPOLLHUP,
                                    EPOLLIN, EPOLLOUT, EpollInode,
                                    socket_events)
from repro.kernel.net.nic import MTU, Nic, Packet
from repro.kernel.net.socket import (EV_SOCK_ACCEPT, EV_SOCK_CLOSE,
                                     EV_SOCK_DROP, SHUT_RD, SHUT_RDWR,
                                     SHUT_WR, SockFS, SockState, SocketInode)
from repro.kernel.net.syscalls import SocketLayer

__all__ = [
    "EPOLL_CTL_ADD", "EPOLL_CTL_DEL", "EPOLL_CTL_MOD",
    "EPOLLERR", "EPOLLHUP", "EPOLLIN", "EPOLLOUT",
    "EV_SOCK_ACCEPT", "EV_SOCK_CLOSE", "EV_SOCK_DROP",
    "EpollInode", "MTU", "Nic", "Packet",
    "SHUT_RD", "SHUT_RDWR", "SHUT_WR",
    "SockFS", "SockState", "SocketInode", "SocketLayer", "socket_events",
]
