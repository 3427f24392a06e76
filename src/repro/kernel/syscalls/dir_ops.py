"""Directory syscall handlers: getdents and namespace operations."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import EINVAL, ENOTDIR, raise_errno
from repro.kernel.clock import Mode
from repro.kernel.vfs.inode import DirEntry

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel


class DirOpsMixin:
    """getdents/mkdir/rmdir/unlink/rename."""

    kernel: "Kernel"

    def _getdents(self, fd: int, bufsize: int,
                  size: Callable[[DirEntry], int],
                  copy_out: Callable[[list[DirEntry], int], None]
                  ) -> tuple[list[DirEntry], int]:
        """The getdents core: emit the entries whose ``size`` fits in
        ``bufsize``, hand them and the bytes they use to ``copy_out``,
        advance ``file.pos`` past them, and return both.

        ``file.pos`` is the index of the next entry to emit, so repeated
        calls stream a large directory exactly like getdents64(2); an empty
        return means end-of-directory.  ``size`` and ``copy_out`` are the
        caller's encoding: linux_dirent64 copied to user space for the
        syscall, Cosy's own packing into the shared buffer for compounds.
        A failed copy leaves ``file.pos`` where it was.
        """
        if bufsize <= 0:
            raise_errno(EINVAL, "getdents bufsize must be positive")
        file = self._file_for(fd)  # type: ignore[attr-defined]
        if not file.inode.is_dir:
            raise_errno(ENOTDIR, "getdents on non-directory")
        entries = file.inode.readdir()
        out: list[DirEntry] = []
        used = 0
        costs = self.kernel.costs
        for entry in entries[file.pos:]:
            need = size(entry)
            if used + need > bufsize:
                break
            self.kernel.clock.charge(costs.dirent_emit, Mode.SYSTEM)
            out.append(entry)
            used += need
        if out:
            copy_out(out, used)
        file.pos += len(out)
        return out, used

    def do_getdents(self, fd: int, bufsize: int = 32768) -> list[DirEntry]:
        """Fill a user dirent buffer; returns the entries that fit."""
        out, _ = self._getdents(
            fd, bufsize, DirEntry.encoded_size,
            lambda _, used: self.ucopy.charge_to_user(used))  # type: ignore[attr-defined]
        return out

    def do_mkdir(self, path: str, mode: int = 0o755) -> int:
        self.ucopy.charge_from_user(len(path) + 1)  # type: ignore[attr-defined]
        self.kernel.vfs.mkdir(path, self.kernel.current.cwd)
        return 0

    def do_rmdir(self, path: str) -> int:
        self.ucopy.charge_from_user(len(path) + 1)  # type: ignore[attr-defined]
        self.kernel.vfs.rmdir(path, self.kernel.current.cwd)
        return 0

    def do_unlink(self, path: str) -> int:
        self.ucopy.charge_from_user(len(path) + 1)  # type: ignore[attr-defined]
        self.kernel.vfs.unlink(path, self.kernel.current.cwd)
        return 0

    def do_rename(self, old_path: str, new_path: str) -> int:
        self.ucopy.charge_from_user(len(old_path) + 1)  # type: ignore[attr-defined]
        self.ucopy.charge_from_user(len(new_path) + 1)  # type: ignore[attr-defined]
        self.kernel.vfs.rename(old_path, new_path, self.kernel.current.cwd)
        return 0
