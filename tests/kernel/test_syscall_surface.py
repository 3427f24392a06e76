"""The kernel's syscall surface has one shape whatever is loaded.

Every syscall in the table is a method of :class:`SyscallInterface`;
loading the socket or uring layer registers it as ``kernel.net`` /
``kernel.uring`` and leaves ``kernel.sys`` untouched.
"""

import inspect

import pytest

from repro.core.cosy import Arg, CompoundBuilder, CosyKernelExtension, SharedBuffer
from repro.errors import CosyError
from repro.kernel import Kernel
from repro.kernel.fs import RamfsSuperBlock
from repro.kernel.net import SocketLayer
from repro.kernel.syscalls.interface import SyscallInterface
from repro.kernel.syscalls.table import SYSCALL_NRS
from repro.kernel.uring import UringLayer


@pytest.fixture
def k():
    kern = Kernel()
    kern.mount_root(RamfsSuperBlock(kern))
    kern.spawn("app")
    return kern


def test_every_table_entry_is_a_syscall_interface_method():
    # exit has no handler and cosy_exec is dispatched by the Cosy extension
    names = set(SYSCALL_NRS) - {"exit", "cosy_exec"}
    missing = sorted(n for n in names
                     if not inspect.isfunction(getattr(SyscallInterface, n,
                                                       None)))
    assert missing == []


def test_bare_kernel_has_no_layers(k):
    assert k.net is None and k.uring is None


def test_loading_layers_leaves_sys_untouched(k):
    before = dict(vars(k.sys))
    net = SocketLayer(k)
    uring = UringLayer(k)
    assert vars(k.sys) == before
    assert k.net is net and k.uring is uring


def test_second_layer_is_rejected(k):
    net = SocketLayer(k)
    uring = UringLayer(k)
    with pytest.raises(RuntimeError, match="already loaded"):
        SocketLayer(k)
    with pytest.raises(RuntimeError, match="already loaded"):
        UringLayer(k)
    assert k.net is net and k.uring is uring
    # the first stack still serves the syscalls
    fd = k.sys.socket()
    k.sys.bind(fd, 80)
    assert net.ports[80] is k.current.get_file(fd).inode


def test_compound_accept_without_socket_layer(k):
    ext = CosyKernelExtension(k)
    b = CompoundBuilder()
    b.syscall("accept", Arg.lit(3), out=b.slot("fd"))
    shared = SharedBuffer(k, k.current, 4096)
    with pytest.raises(CosyError, match="socket layer is not loaded"):
        ext.execute(k.current, b.encode(), shared)
