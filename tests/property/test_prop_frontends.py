"""Property tests: one file-op semantics through every front end.

A syscall, a Cosy compound op and a uring SQE for the same file op run the
same kernel-side core (``kernel/syscalls/file_ops.py``), so they must agree
on everything but the copy costs.  Three fresh kernels run one sequence of
ops in lockstep:

* ``syscall`` makes every op through ``kernel.sys``;
* ``cosy`` makes every op as a one-op compound through the Cosy kernel
  extension, moving data through a shared buffer;
* ``uring`` makes pread/pwrite as ``OP_READ``/``OP_WRITE`` SQEs (the ring's
  read and write are positional) and every other op through ``kernel.sys``.

After each op the three must give the same result or errno, the same file
bytes and the same ``file.pos`` on every descriptor.  Inputs include
negative counts and offsets, descriptors that were never opened, a write
on an ``O_RDONLY`` fd, getdents on a regular file and zero-size buffers.
"""

from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cosy import (Arg, CompoundBuilder, CosyKernelExtension,
                             SharedBuffer)
from repro.errors import EINVAL, ENOTDIR, Errno, raise_errno
from repro.kernel import Kernel
from repro.kernel.fs import RamfsSuperBlock
from repro.kernel.uring import OP_READ, OP_WRITE, Sqe, UringLayer, UringQueue
from repro.kernel.vfs import O_APPEND, O_CREAT, O_RDONLY, O_RDWR, O_WRONLY
from repro.kernel.vfs.inode import DirEntry
from repro.kernel.vfs.stat import STAT_SIZE, Stat

PAYLOAD = b"0123456789"
#: (path, flags) opened in this order on every kernel after the ring fd
OPENS = [("/f", O_RDWR), ("/f", O_RDONLY), ("/f", O_WRONLY | O_APPEND),
         ("/g", O_RDWR), ("/d", O_RDONLY)]
NEVER_OPENED = [-1, 57]
PATHS = ["/f", "/d", "/d/a", "/d/n", "/e", "/nope", "/f/x"]
#: getdents sizes at which both dirent encodings fit the same entries
DIRENT_BUFS = [0, 1, 9, 4096]

#: shared-buffer layout of the Cosy kernel
PATH_OFF, STAT_OFF, DATA_OFF = 0, 256, 512


def _boot():
    k = Kernel()
    k.mount_root(RamfsSuperBlock(k))
    task = k.spawn("app")
    k.sys.mkdir("/d")
    for name in ("a", "bb", "ccc"):
        k.sys.close(k.sys.open(f"/d/{name}", O_CREAT | O_WRONLY))
    fd = k.sys.open("/f", O_CREAT | O_WRONLY)
    k.sys.write(fd, PAYLOAD)
    k.sys.close(fd)
    k.sys.close(k.sys.open("/g", O_CREAT | O_WRONLY))
    UringLayer(k)
    ring = UringQueue(k, k.sys.uring_setup(4))
    fds = [k.sys.open(path, flags) for path, flags in OPENS]
    return k, task, ring, fds


class SyscallFront:
    def __init__(self):
        self.k, self.task, self.ring, self.fds = _boot()

    def run(self, name, *args):
        return getattr(self.k.sys, name)(*args)


class UringFront(SyscallFront):
    def __init__(self):
        super().__init__()
        self.data = self.ring.alloc(64)

    def run(self, name, *args):
        if name == "pread":
            fd, count, off = args
            res = self._sqe(OP_READ, fd, off, count)
            return self.ring.shared.read_user(self.data, res)
        if name == "pwrite":
            fd, data, off = args
            if data:
                self.ring.shared.write_user(self.data, data)
            return self._sqe(OP_WRITE, fd, off, len(data))
        return super().run(name, *args)

    def _sqe(self, op, fd, off, length):
        assert self.ring.prep(Sqe(op, fd=fd, off=off, addr=self.data,
                                  len=length, user_data=7))
        self.ring.submit()
        (cqe,) = self.ring.harvest()
        if cqe.res < 0:
            raise_errno(-cqe.res, "uring")
        return cqe.res


class CosyFront(SyscallFront):
    def __init__(self):
        super().__init__()
        self.ext = CosyKernelExtension(self.k)
        self.shared = SharedBuffer(self.k, self.task, 8192)

    def _exec(self, name, *args):
        b = CompoundBuilder()
        b.syscall(name, *args, out=b.slot("r"))
        return self.ext.execute(self.task, b.encode(), self.shared)[0]

    def _path(self, path):
        raw = path.encode() + b"\0"
        self.shared.write_user(PATH_OFF, raw)
        return Arg.shared(PATH_OFF, len(raw))

    def _data(self, data):
        if data:
            self.shared.write_user(DATA_OFF, data)
        return Arg.shared(DATA_OFF, len(data))

    def run(self, name, *args):
        lit = Arg.lit
        if name == "read":
            fd, count = args
            n = self._exec(name, lit(fd), Arg.shared(DATA_OFF), lit(count))
            return self.shared.read_user(DATA_OFF, n)
        if name == "pread":
            fd, count, off = args
            n = self._exec(name, lit(fd), Arg.shared(DATA_OFF), lit(count),
                           lit(off))
            return self.shared.read_user(DATA_OFF, n)
        if name == "write":
            fd, data = args
            return self._exec(name, lit(fd), self._data(data), lit(len(data)))
        if name == "pwrite":
            fd, data, off = args
            return self._exec(name, lit(fd), self._data(data), lit(len(data)),
                              lit(off))
        if name in ("stat", "fstat"):
            target = self._path(args[0]) if name == "stat" else lit(args[0])
            self._exec(name, target, Arg.shared(STAT_OFF, STAT_SIZE))
            return Stat.unpack(self.shared.read_user(STAT_OFF, STAT_SIZE))
        if name == "getdents":
            fd, bufsize = args
            used = self._exec(name, lit(fd), Arg.shared(DATA_OFF, bufsize))
            return _unpack_dirents(self.shared.read_user(DATA_OFF, used))
        if name in ("unlink", "mkdir", "rmdir"):
            return self._exec(name, self._path(args[0]))
        assert name == "ftruncate"
        return self._exec(name, lit(args[0]), lit(args[1]))


def _unpack_dirents(raw):
    """Cosy's dirent packing: ino(8) dtype(1) namelen(1) name."""
    out, i = [], 0
    while i < len(raw):
        ino = int.from_bytes(raw[i:i + 8], "little")
        dtype, n = raw[i + 8], raw[i + 9]
        out.append(DirEntry(raw[i + 10:i + 10 + n].decode(), ino, dtype))
        i += 10 + n
    return out


def _outcome(front, op):
    """Run ``op`` on ``front``: ("ok", result) or ("errno", errno).  An fd
    argument is ("open", index into OPENS) or ("raw", descriptor)."""
    name, *args = op
    args = [_fd(front, a) if isinstance(a, tuple) else a for a in args]
    try:
        result = front.run(name, *args)
    except Errno as e:
        return ("errno", e.errno)
    if isinstance(result, Stat):    # times follow each kernel's cycle count
        result = replace(result, atime=0, mtime=0, ctime=0)
    return ("ok", result)


def _fd(front, ref):
    kind, v = ref
    return front.fds[v] if kind == "open" else v


def _state(front):
    task = front.task
    out = []
    for fd in front.fds:
        file = task.get_file(fd)
        data = None if file.inode.is_dir else file.inode.read(0, file.inode.size)
        out.append((fd, file.pos, data))
    return out


any_fd = st.sampled_from([("open", i) for i in range(len(OPENS))]
                         + [("raw", fd) for fd in NEVER_OPENED])
counts = st.integers(min_value=-2, max_value=12)
offsets = st.integers(min_value=-3, max_value=12)
data = st.binary(max_size=6)
paths = st.sampled_from(PATHS)

ops = st.one_of(
    st.tuples(st.just("read"), any_fd, counts),
    st.tuples(st.just("write"), any_fd, data),
    st.tuples(st.just("pread"), any_fd, counts, offsets),
    st.tuples(st.just("pwrite"), any_fd, data, offsets),
    st.tuples(st.just("stat"), paths),
    st.tuples(st.just("fstat"), any_fd),
    st.tuples(st.just("getdents"), any_fd, st.sampled_from(DIRENT_BUFS)),
    st.tuples(st.just("unlink"), paths),
    st.tuples(st.just("mkdir"), paths),
    st.tuples(st.just("rmdir"), paths),
    st.tuples(st.just("ftruncate"), any_fd, offsets),
)


def _fronts():
    return [SyscallFront(), CosyFront(), UringFront()]


@settings(max_examples=100, deadline=None)
@given(st.lists(ops, min_size=1, max_size=10))
@example([("getdents", ("open", 4), 4096), ("getdents", ("open", 4), 4096),
          ("stat", "/d/a"), ("fstat", ("open", 0)), ("mkdir", "/e"),
          ("rmdir", "/e"), ("unlink", "/d/a"), ("ftruncate", ("open", 0), 4)])
def test_syscall_cosy_and_uring_agree(seq):
    fronts = _fronts()
    for op in seq:
        outcomes = [_outcome(front, op) for front in fronts]
        assert outcomes[1] == outcomes[0], (op, "cosy")
        assert outcomes[2] == outcomes[0], (op, "uring")
        states = [_state(front) for front in fronts]
        assert states[1] == states[0], (op, "cosy")
        assert states[2] == states[0], (op, "uring")


def test_negative_pwrite_offset_is_einval_and_leaves_the_file():
    for front in _fronts():
        assert _outcome(front, ("pwrite", ("open", 0), b"xy", -3)) == ("errno", EINVAL)
        assert _state(front)[0][2] == PAYLOAD


def test_negative_read_count_is_einval():
    for op in [("read", ("open", 0), -1), ("pread", ("open", 0), -1, 0)]:
        assert [_outcome(f, op) for f in _fronts()] == [("errno", EINVAL)] * 3


def test_getdents_on_a_regular_file_is_enotdir():
    op = ("getdents", ("open", 0), 4096)
    assert [_outcome(f, op) for f in _fronts()] == [("errno", ENOTDIR)] * 3
