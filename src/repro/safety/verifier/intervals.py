"""The interval (value-range) abstract domain for C-minus integers.

Bounds are either exact Python ints or ``None`` (unbounded on that side).
All arithmetic is sound with respect to the interpreter's 64-bit wrapping
semantics: whenever a computed bound could leave the representable signed
64-bit range (where wraparound would reorder values), the result degrades
to TOP on that side rather than modelling the wrap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class Interval:
    """A closed integer interval [lo, hi]; ``None`` means unbounded."""

    lo: Optional[int] = None
    hi: Optional[int] = None

    # ------------------------------------------------------------- factory

    @staticmethod
    def top() -> "Interval":
        return Interval(None, None)

    @staticmethod
    def const(v: int) -> "Interval":
        return Interval(v, v)

    @staticmethod
    def range(lo: Optional[int], hi: Optional[int]) -> "Interval":
        return Interval(lo, hi)

    # ------------------------------------------------------------- queries

    @property
    def is_const(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def contains(self, v: int) -> bool:
        if self.lo is not None and v < self.lo:
            return False
        if self.hi is not None and v > self.hi:
            return False
        return True

    def definitely_ge(self, v: int) -> bool:
        return self.lo is not None and self.lo >= v

    def __str__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"

    # ------------------------------------------------------------- lattice

    def join(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None \
            else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None \
            else max(self.hi, other.hi)
        return Interval(lo, hi)

    def widen(self, other: "Interval") -> "Interval":
        """Standard interval widening: a bound that moved escapes to
        infinity, so loops reach a fixpoint in bounded steps."""
        lo = self.lo
        if other.lo is None or (lo is not None and other.lo < lo):
            lo = None
        hi = self.hi
        if other.hi is None or (hi is not None and other.hi > hi):
            hi = None
        return Interval(lo, hi)

    def meet(self, other: "Interval") -> "Interval":
        """Intersection; an empty meet collapses to the tighter bound pair
        (callers treat lo > hi as unreachable)."""
        lo = self.lo if other.lo is None else (
            other.lo if self.lo is None else max(self.lo, other.lo))
        hi = self.hi if other.hi is None else (
            other.hi if self.hi is None else min(self.hi, other.hi))
        return Interval(lo, hi)

    @property
    def empty(self) -> bool:
        return (self.lo is not None and self.hi is not None
                and self.lo > self.hi)

    # ---------------------------------------------------------- arithmetic

    def _clamp(self, lo: Optional[int], hi: Optional[int]) -> "Interval":
        """Degrade any bound outside the signed-64 range (where the
        interpreter would wrap) to unbounded."""
        if lo is not None and lo < INT64_MIN:
            lo = None
        if hi is not None and hi > INT64_MAX:
            hi = None
        # wrapping can also *reorder*: if either bound escaped the machine
        # range, the companion bound is no longer trustworthy either.
        if (lo is None) != (hi is None):
            if lo is not None and lo > INT64_MAX:
                return Interval.top()
            if hi is not None and hi < INT64_MIN:
                return Interval.top()
        return Interval(lo, hi)

    def add(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None \
            else self.lo + other.lo
        hi = None if self.hi is None or other.hi is None \
            else self.hi + other.hi
        return self._clamp(lo, hi)

    def sub(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.hi is None \
            else self.lo - other.hi
        hi = None if self.hi is None or other.lo is None \
            else self.hi - other.lo
        return self._clamp(lo, hi)

    def neg(self) -> "Interval":
        lo = None if self.hi is None else -self.hi
        hi = None if self.lo is None else -self.lo
        return self._clamp(lo, hi)

    def mul(self, other: "Interval") -> "Interval":
        if None in (self.lo, self.hi, other.lo, other.hi):
            # a scaled half-open interval keeps a usable bound only when
            # the known factor is a non-negative constant
            if self.is_const and self.lo is not None and self.lo >= 0:
                return self._scale_by_nonneg_const(other, self.lo)
            if other.is_const and other.lo is not None and other.lo >= 0:
                return other._scale_by_nonneg_const(self, other.lo)
            return Interval.top()
        corners = [a * b for a in (self.lo, self.hi)
                   for b in (other.lo, other.hi)]
        return self._clamp(min(corners), max(corners))

    @staticmethod
    def _scale_by_nonneg_const(iv: "Interval", k: int) -> "Interval":
        lo = None if iv.lo is None else iv.lo * k
        hi = None if iv.hi is None else iv.hi * k
        return Interval()._clamp(lo, hi)

    def div(self, other: "Interval") -> "Interval":
        """C truncating division; sound only for a nonzero constant
        divisor and a fully-bounded dividend — anything else is TOP."""
        if not other.is_const or other.lo in (None, 0):
            return Interval.top()
        k = other.lo
        if self.lo is None or self.hi is None or k is None:
            return Interval.top()
        corners = [int(self.lo / k), int(self.hi / k)]
        return self._clamp(min(corners), max(corners))

    def mod(self, other: "Interval") -> "Interval":
        """C remainder: for a positive constant divisor m and non-negative
        dividend, the result is [0, m-1]; otherwise (-|m|+1, |m|-1) when m
        is a nonzero constant, else TOP."""
        if not other.is_const or other.lo in (None, 0):
            return Interval.top()
        m = abs(other.lo)  # type: ignore[arg-type]
        if self.lo is not None and self.lo >= 0:
            return Interval(0, m - 1)
        return Interval(-(m - 1), m - 1)

    # -------------------------------------------------------- comparisons

    def cmp(self, op: str, other: "Interval") -> "Interval":
        """Abstract comparison: [0,0] definitely-false, [1,1]
        definitely-true, [0,1] unknown."""
        if None not in (self.lo, self.hi, other.lo, other.hi):
            assert self.lo is not None and self.hi is not None
            assert other.lo is not None and other.hi is not None
            if op == "<":
                if self.hi < other.lo:
                    return Interval.const(1)
                if self.lo >= other.hi:
                    return Interval.const(0)
            elif op == "<=":
                if self.hi <= other.lo:
                    return Interval.const(1)
                if self.lo > other.hi:
                    return Interval.const(0)
            elif op == ">":
                if self.lo > other.hi:
                    return Interval.const(1)
                if self.hi <= other.lo:
                    return Interval.const(0)
            elif op == ">=":
                if self.lo >= other.hi:
                    return Interval.const(1)
                if self.hi < other.lo:
                    return Interval.const(0)
            elif op == "==":
                if self.is_const and other.is_const and self.lo == other.lo:
                    return Interval.const(1)
                if self.hi < other.lo or self.lo > other.hi:
                    return Interval.const(0)
            elif op == "!=":
                if self.is_const and other.is_const and self.lo == other.lo:
                    return Interval.const(0)
                if self.hi < other.lo or self.lo > other.hi:
                    return Interval.const(1)
        return Interval(0, 1)
