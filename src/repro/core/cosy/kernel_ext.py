"""The Cosy kernel extension: decode and execute compounds in kernel mode.

"The final component is the Cosy kernel extension, which is the heart of
the Cosy framework.  It decodes each operation within a compound and then
executes each operation in turn." (§2.3)

Execution model:

* the whole compound enters the kernel through **one** trap (the
  ``cosy_exec`` syscall), so N operations cost one boundary crossing;
* syscall operations invoke the *same handlers* a normal process reaches
  through the dispatcher — every fd/permission/path check still runs — but
  data moves through the shared buffer at in-kernel memcpy cost instead of
  uaccess cost (the zero-copy saving);
* every operation is a preemption point, which arms the kernel-time
  watchdog against infinite loops;
* user functions (CALLF ops) run under segment isolation per the
  configured :class:`~repro.core.cosy.safety.CosyProtection`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cminus import ast_nodes as ast
from repro.cminus.compile import bump_generation
from repro.core.cosy.compound import (CompoundFault, CompoundStatus,
                                      decode_compound)
from repro.core.cosy.ops import Arg, ArgKind, MATH_OP_NAMES, Op, OpCode
from repro.core.cosy.safety import CosyProtection, CosyWatchdog, FunctionIsolation
from repro.core.cosy.shared_buffer import SharedBuffer
from repro.errors import (CosyError, EBADF, ENOMEM, Errno, OutOfMemory,
                          raise_errno)
from repro.kernel.clock import Mode
from repro.kernel.syscalls.table import syscall_name
from repro.kernel.vfs.file import O_APPEND

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel
    from repro.kernel.process import Task

#: default kernel-time budget for one compound: ~200 ms at 1.7 GHz.
DEFAULT_MAX_KERNEL_CYCLES = 340_000_000


class _RegisteredFunction:
    def __init__(self, program: ast.Program, func: str, handcrafted: bool):
        self.program = program
        self.func = func
        self.handcrafted = handcrafted


class CosyKernelExtension:
    """One loaded instance of the Cosy kernel module."""

    def __init__(self, kernel: "Kernel", *,
                 protection: CosyProtection = CosyProtection.DATA_ONLY,
                 max_kernel_cycles: int = DEFAULT_MAX_KERNEL_CYCLES,
                 verifier=None, engine: str = "compiled"):
        self.kernel = kernel
        self.protection = protection
        #: C-minus execution engine for CALLF ops: "compiled" (closure
        #: compiler + kernel.code_cache) or "tree" (the oracle interpreter)
        self.engine = engine
        self.watchdog = CosyWatchdog(kernel, max_kernel_cycles)
        self.watchdog.arm()
        self._functions: dict[int, _RegisteredFunction] = {}
        self._next_func_id = 1
        self.compounds_executed = 0
        self.compounds_failed = 0
        self.ops_executed = 0
        #: status of the most recent compound (§2.1 partial-failure record)
        self.last_status: CompoundStatus | None = None
        #: optional §2.4 trust manager (set by TrustManager itself)
        self.trust_manager = None
        #: optional load-time verifier (e.g.
        #: :class:`repro.safety.verifier.LoadTimeVerifier` — duck-typed so
        #: the core package keeps no import of the safety tools).  When
        #: set, every register_function() is verified: REJECT refuses the
        #: load, and verdicts are published to the trust manager.
        self.verifier = verifier
        #: func_id -> effective load-time verdict (when a verifier is set)
        self.verdicts: dict[int, object] = {}

    def unload(self) -> None:
        self.watchdog.disarm()

    # ---------------------------------------------------------- functions

    def register_function(self, program: ast.Program, func: str,
                          *, handcrafted: bool = False) -> int:
        """Register a compiled user function; returns its CALLF id.

        When a load-time verifier is attached, the function is statically
        verified *here* — the one-time analysis cost is charged to kernel
        time, a REJECT verdict refuses the registration with
        :class:`~repro.errors.VerifierReject`, and PROVEN_SAFE verdicts are
        published to the trust manager so the function can start at
        DATA_ONLY protection without any warmup runs.
        """
        if func not in program.funcs:
            raise CosyError(f"function '{func}' not defined in program")
        # (Re-)registration is a load event: any previously compiled code
        # for this program object must not survive it.
        bump_generation(program)
        verdict = None
        if self.verifier is not None and not handcrafted:
            fv = self.verifier.verdict_for(program, func)
            self.kernel.clock.charge(
                self.kernel.costs.verifier_cost(fv.nodes), Mode.SYSTEM)
            if fv.effective.name == "REJECT":
                from repro.errors import VerifierReject
                raise VerifierReject(func, fv.reject_reasons())
            verdict = fv.effective
        func_id = self._next_func_id
        self._next_func_id += 1
        self._functions[func_id] = _RegisteredFunction(program, func, handcrafted)
        if verdict is not None:
            self.verdicts[func_id] = verdict
            if self.trust_manager is not None:
                self.trust_manager.note_verdict(func_id, verdict)
        return func_id

    # ----------------------------------------------------------- execution

    def execute(self, task: "Task", compound: bytes,
                shared: SharedBuffer) -> list[int]:
        """Run a compound as the ``cosy_exec`` syscall; returns final slots."""
        sys = self.kernel.sys
        return sys._dispatch(
            "cosy_exec",
            lambda: self._execute_in_kernel(task, compound, shared),
            args=(len(compound),))

    def _execute_in_kernel(self, task: "Task", compound: bytes,
                           shared: SharedBuffer) -> list[int]:
        kernel = self.kernel
        costs = kernel.costs
        kernel.clock.charge(costs.cosy_setup, Mode.SYSTEM)
        ops, nslots = decode_compound(compound)
        slots = [0] * max(nslots, 1)
        isolation = FunctionIsolation(kernel, task, shared, self.protection,
                                      engine=self.engine)
        self.compounds_executed += 1
        task.kernel_entry_cycles = kernel.clock.now
        status = CompoundStatus()
        self.last_status = status
        pc = 0
        tracer = kernel.trace
        try:
            while pc < len(ops):
                op = ops[pc]
                kernel.clock.charge(costs.cosy_decode_op, Mode.SYSTEM)
                kernel.sched.maybe_preempt()  # watchdog checkpoint
                self.ops_executed += 1
                if op.opcode is OpCode.END:
                    break
                traced = tracer.enabled
                if traced:
                    tracer.begin(f"cosy:{_op_label(op)}", "cosy", pc=pc)
                try:
                    pc = self._exec_op(op, pc, slots, shared, isolation)
                except (Errno, OutOfMemory) as exc:
                    # §2.1 partial failure: the compound stops at the
                    # failing element.  Ops before pc have fully taken
                    # effect (their results are in `slots`); nothing after
                    # pc ran.  Report which element failed, with errno.
                    errno = exc.errno if isinstance(exc, Errno) else ENOMEM
                    status.failed_index = pc
                    status.errno = errno
                    self.compounds_failed += 1
                    raise CompoundFault(errno, pc, _op_label(op), slots,
                                        status.ops_completed,
                                        str(exc)) from exc
                finally:
                    if traced:
                        tracer.end()
                status.ops_completed += 1
        finally:
            task.kernel_entry_cycles = None
            isolation.release()
        return slots

    # ------------------------------------------------------------ op bodies

    def _resolve(self, arg: Arg, slots: list[int]) -> int:
        if arg.kind is ArgKind.LIT:
            return arg.value
        if arg.kind is ArgKind.SLOT:
            return slots[arg.value]
        raise CosyError("shared-buffer arg used where a scalar is expected")

    def _exec_op(self, op: Op, pc: int, slots: list[int],
                 shared: SharedBuffer, isolation: FunctionIsolation) -> int:
        if op.opcode is OpCode.MOV:
            slots[op.dst] = self._resolve(op.args[0], slots)
            return pc + 1
        if op.opcode is OpCode.MATH:
            name = MATH_OP_NAMES.get(op.extra)
            if name is None:
                raise CosyError(f"bad math opcode {op.extra}")
            a = self._resolve(op.args[0], slots)
            b = self._resolve(op.args[1], slots)
            slots[op.dst] = _math(name, a, b)
            return pc + 1
        if op.opcode is OpCode.JMP:
            return op.extra
        if op.opcode is OpCode.JZ:
            cond = self._resolve(op.args[0], slots)
            return op.extra if cond == 0 else pc + 1
        if op.opcode is OpCode.SYSCALL:
            slots[op.dst] = self._exec_syscall(op, slots, shared)
            return pc + 1
        if op.opcode is OpCode.CALLF:
            reg = self._functions.get(op.extra)
            if reg is None:
                raise CosyError(f"CALLF to unregistered function {op.extra}")
            args = [self._resolve(a, slots) if a.kind is not ArgKind.SHARED
                    else a.value for a in op.args]
            trust = self.trust_manager
            mode = trust.protection_for(op.extra) if trust is not None else None
            try:
                slots[op.dst] = isolation.call(reg.program, reg.func, args,
                                               handcrafted=reg.handcrafted,
                                               mode=mode)
            except Exception as exc:
                from repro.errors import HardwareFault
                if trust is not None and isinstance(exc, HardwareFault):
                    trust.record_fault(op.extra, exc)
                raise
            if trust is not None:
                trust.record_clean(op.extra)
            return pc + 1
        raise CosyError(f"unexpected opcode {op.opcode}")

    # ------------------------------------------------- syscall marshalling

    def _exec_syscall(self, op: Op, slots: list[int],
                      shared: SharedBuffer) -> int:
        """Invoke one syscall op through the normal handlers, zero-copy."""
        kernel = self.kernel
        sys = kernel.sys
        name = syscall_name(op.extra)
        kernel.clock.charge(kernel.costs.syscall_dispatch, Mode.SYSTEM)
        args = op.args

        def scalar(i: int) -> int:
            return self._resolve(args[i], slots)

        def shared_ref(i: int) -> tuple[int, int]:
            a = args[i]
            if a.kind is not ArgKind.SHARED:
                raise CosyError(f"{name}: arg {i} must be a shared-buffer ref")
            return a.value, a.aux

        def path_arg(i: int) -> str:
            off, length = shared_ref(i)
            # C-string semantics: stop at the first NUL so a reused request
            # region (e.g. the Cosy HTTP server's) tolerates stale tails.
            return shared.read_kernel(off, length).split(b"\0", 1)[0].decode()

        if name == "open":
            return sys._open_nocopy(path_arg(0), scalar(1),
                                    scalar(2) if len(args) > 2 else 0o644)
        if name == "close":
            return sys.do_close(scalar(0))
        if name == "read":
            fd = scalar(0)
            off, _ = shared_ref(1)
            count = scalar(2)
            file = sys._file_for(fd)
            file.check_readable()
            data = file.inode.read(file.pos, count)
            file.pos += len(data)
            shared.write_kernel(off, data)
            return len(data)
        if name == "write":
            fd = scalar(0)
            off, _ = shared_ref(1)
            count = scalar(2)
            data = shared.read_kernel(off, count)
            file = sys._file_for(fd)
            file.check_writable()
            pos = file.inode.size if (file.flags & O_APPEND) else file.pos
            n = file.inode.write(pos, data)
            file.pos = pos + n
            return n
        if name == "pread":
            fd, count, fpos = scalar(0), scalar(2), scalar(3)
            off, _ = shared_ref(1)
            file = sys._file_for(fd)
            file.check_readable()
            data = file.inode.read(fpos, count)
            shared.write_kernel(off, data)
            return len(data)
        if name == "pwrite":
            fd, count, fpos = scalar(0), scalar(2), scalar(3)
            off, _ = shared_ref(1)
            data = shared.read_kernel(off, count)
            file = sys._file_for(fd)
            file.check_writable()
            return file.inode.write(fpos, data)
        if name == "lseek":
            return sys.do_lseek(scalar(0), scalar(1), scalar(2))
        if name == "getpid":
            return sys.do_getpid()
        if name == "stat":
            path = path_arg(0)
            off, _ = shared_ref(1)
            dentry = kernel.vfs.path_walk(path, kernel.current.cwd)
            kernel.clock.charge(kernel.costs.stat_fill, Mode.SYSTEM)
            shared.write_kernel(off, dentry.inode.getattr().pack())
            return 0
        if name == "fstat":
            fd = scalar(0)
            off, _ = shared_ref(1)
            file = sys._file_for(fd)
            kernel.clock.charge(kernel.costs.stat_fill, Mode.SYSTEM)
            shared.write_kernel(off, file.inode.getattr().pack())
            return 0
        if name == "unlink":
            kernel.vfs.unlink(path_arg(0), kernel.current.cwd)
            return 0
        if name == "mkdir":
            kernel.vfs.mkdir(path_arg(0), kernel.current.cwd)
            return 0
        if name == "rmdir":
            kernel.vfs.rmdir(path_arg(0), kernel.current.cwd)
            return 0
        if name == "ftruncate":
            return sys.do_ftruncate(scalar(0), scalar(1))
        if name == "getdents":
            fd = scalar(0)
            off, length = shared_ref(1)
            entries = sys._file_for(fd)  # validate fd first
            if not entries.inode.is_dir:
                raise_errno(EBADF, "getdents on non-directory")
            batch = []
            used = 0
            all_entries = entries.inode.readdir()
            for e in all_entries[entries.pos:]:
                raw = _pack_dirent(e)
                if used + len(raw) > length:
                    break
                kernel.clock.charge(kernel.costs.dirent_emit, Mode.SYSTEM)
                batch.append(raw)
                used += len(raw)
            entries.pos += len(batch)
            if batch:
                shared.write_kernel(off, b"".join(batch))
            return used
        if name in ("accept", "sendfile", "shutdown"):
            # Network handlers live on kernel.net (repro.kernel.net's
            # SocketLayer); compounds reach them only once it is loaded.
            net = kernel.net
            if net is None:
                raise CosyError(f"{name}: socket layer is not loaded")
            if name == "accept":
                return net.do_accept(scalar(0))
            if name == "sendfile":
                return net.do_sendfile(scalar(0), scalar(1), scalar(2),
                                       scalar(3))
            return net.do_shutdown(scalar(0), scalar(1))
        raise CosyError(f"syscall '{name}' is not available in compounds")


def _op_label(op: Op) -> str:
    """Human-readable name of a compound op for failure reports."""
    if op.opcode is OpCode.SYSCALL:
        return syscall_name(op.extra)
    if op.opcode is OpCode.CALLF:
        return f"callf#{op.extra}"
    return op.opcode.name.lower()


def _pack_dirent(entry) -> bytes:
    name_bytes = entry.name.encode()
    return (entry.ino.to_bytes(8, "little")
            + bytes([entry.dtype, len(name_bytes)]) + name_bytes)


def _math(op: str, a: int, b: int) -> int:
    """C-semantics integer math shared with the interpreter."""
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise CosyError("division by zero in compound")
        return int(a / b)
    if op == "%":
        if b == 0:
            raise CosyError("modulo by zero in compound")
        return a - int(a / b) * b
    if op == "<":
        return 1 if a < b else 0
    if op == ">":
        return 1 if a > b else 0
    if op == "<=":
        return 1 if a <= b else 0
    if op == ">=":
        return 1 if a >= b else 0
    if op == "==":
        return 1 if a == b else 0
    if op == "!=":
        return 1 if a != b else 0
    if op == "&":
        return a & b
    if op == "|":
        return a | b
    if op == "^":
        return a ^ b
    if op == "<<":
        return a << (b & 63)
    if op == ">>":
        return a >> (b & 63)
    if op == "&&":
        return 1 if (a and b) else 0
    if op == "||":
        return 1 if (a or b) else 0
    raise CosyError(f"unknown math op {op}")
