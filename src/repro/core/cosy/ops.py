"""The Cosy intermediate language: operations and their binary encoding.

A *compound* is a byte-encoded program the kernel executes: a header, then
a sequence of fixed-layout operations whose arguments are literals, slot
(register) references, or shared-buffer references.  The encoding is a real
binary format (struct-packed) because the compound buffer is genuinely
shared user/kernel memory — the kernel decodes the same bytes the user
library wrote, with no copy in between (§2.3).

Layout
------
header   : magic u32 | nops u32 | nslots u32 | reserved u32        (16 B)
op       : opcode u8 | dst u8 | extra u16 | nargs u32              (8 B)
arg      : kind u8 | pad[7] | value i64 | aux i64                  (24 B)

``extra`` carries the syscall number (SYSCALL), math opcode (MATH), jump
target (JMP/JZ), or function id (CALLF).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

from repro.errors import CosyError

COSY_MAGIC = 0x59534F43  # "COSY" little-endian

_HEADER = struct.Struct("<IIII")
_OP = struct.Struct("<BBHI")
_ARG = struct.Struct("<B7xqq")

MAX_SLOTS = 256
MAX_OPS = 65536


class OpCode(enum.IntEnum):
    END = 0        # end of compound
    SYSCALL = 1    # extra=nr, args per syscall marshaller, result -> dst
    MOV = 2        # dst = arg0
    MATH = 3       # dst = arg0 <extra-op> arg1
    JMP = 4        # unconditional jump to op index `extra`
    JZ = 5         # if arg0 == 0 jump to op index `extra`
    CALLF = 6      # call user function `extra` with args, result -> dst


class ArgKind(enum.IntEnum):
    LIT = 0        # value = immediate
    SLOT = 1       # value = slot index
    SHARED = 2     # value = byte offset into the shared buffer, aux = length


#: math sub-opcodes for OpCode.MATH (``extra`` field)
MATH_OPS: dict[str, int] = {
    "+": 0, "-": 1, "*": 2, "/": 3, "%": 4,
    "<": 5, ">": 6, "<=": 7, ">=": 8, "==": 9, "!=": 10,
    "&": 11, "|": 12, "^": 13, "<<": 14, ">>": 15,
    "&&": 16, "||": 17,
}
MATH_OP_NAMES = {code: name for name, code in MATH_OPS.items()}


@dataclass(frozen=True)
class Arg:
    kind: ArgKind
    value: int
    aux: int = 0

    @staticmethod
    def lit(value: int) -> "Arg":
        return Arg(ArgKind.LIT, value)

    @staticmethod
    def slot(index: int) -> "Arg":
        if not (0 <= index < MAX_SLOTS):
            raise CosyError(f"slot index {index} out of range")
        return Arg(ArgKind.SLOT, index)

    @staticmethod
    def shared(offset: int, length: int = 0) -> "Arg":
        if offset < 0 or length < 0:
            raise CosyError("negative shared-buffer reference")
        return Arg(ArgKind.SHARED, offset, length)

    def pack(self) -> bytes:
        return _ARG.pack(int(self.kind), self.value, self.aux)

    @staticmethod
    def unpack(data: bytes, offset: int) -> "Arg":
        kind, value, aux = _ARG.unpack_from(data, offset)
        try:
            k = ArgKind(kind)
        except ValueError as exc:
            raise CosyError(f"bad arg kind {kind} at byte {offset}") from exc
        return Arg(k, value, aux)


@dataclass(frozen=True)
class Op:
    opcode: OpCode
    dst: int = 0
    extra: int = 0
    args: tuple[Arg, ...] = field(default_factory=tuple)

    def pack(self) -> bytes:
        out = _OP.pack(int(self.opcode), self.dst, self.extra, len(self.args))
        return out + b"".join(a.pack() for a in self.args)

    @staticmethod
    def unpack(data: bytes, offset: int) -> tuple["Op", int]:
        if offset + _OP.size > len(data):
            raise CosyError("truncated op header")
        opcode, dst, extra, nargs = _OP.unpack_from(data, offset)
        try:
            oc = OpCode(opcode)
        except ValueError as exc:
            raise CosyError(f"bad opcode {opcode} at byte {offset}") from exc
        if nargs > 64:
            raise CosyError(f"implausible arg count {nargs}")
        offset += _OP.size
        args = []
        for _ in range(nargs):
            if offset + _ARG.size > len(data):
                raise CosyError("truncated op arguments")
            args.append(Arg.unpack(data, offset))
            offset += _ARG.size
        return Op(oc, dst, extra, tuple(args)), offset


def pack_header(nops: int, nslots: int) -> bytes:
    if nops > MAX_OPS:
        raise CosyError(f"compound too large: {nops} ops")
    if nslots > MAX_SLOTS:
        raise CosyError(f"too many slots: {nslots}")
    return _HEADER.pack(COSY_MAGIC, nops, nslots, 0)


def unpack_header(data: bytes) -> tuple[int, int]:
    if len(data) < _HEADER.size:
        raise CosyError("compound shorter than header")
    magic, nops, nslots, _ = _HEADER.unpack_from(data, 0)
    if magic != COSY_MAGIC:
        raise CosyError(f"bad compound magic {magic:#x}")
    if nops > MAX_OPS or nslots > MAX_SLOTS:
        raise CosyError("compound header limits exceeded")
    return nops, nslots


HEADER_SIZE = _HEADER.size
