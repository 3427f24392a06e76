"""Reference counters, instrumentable via the kernel event hook.

The §3.3 monitors verify that "reference counters are incremented and
decremented symmetrically"; this class is the kernel-side object they watch.
Underflow is detected eagerly (it would be a use-after-free in a real
kernel); symmetry over a whole trace is the monitor's job.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import InvariantViolation
from repro.kernel.locks import EV_REF_DEC, EV_REF_INC

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel


class RefCount:
    """An atomic_t-style reference counter with event emission."""

    def __init__(self, kernel: "Kernel", name: str, initial: int = 1,
                 *, instrumented: bool = False):
        if initial < 0:
            raise ValueError("initial refcount must be >= 0")
        self.kernel = kernel
        self.name = name
        self.value = initial
        self.instrumented = instrumented or kernel.instrument_all_refcounts
        self.incs = 0
        self.decs = 0

    def get(self, site: str = "?") -> int:
        """Increment (take a reference); returns the new value."""
        self.value += 1
        self.incs += 1
        if self.instrumented:
            self.kernel.log_event(self, EV_REF_INC, site)
        return self.value

    def put(self, site: str = "?") -> int:
        """Decrement (drop a reference); returns the new value.
        Dropping below zero is an immediate invariant violation."""
        if self.value == 0:
            raise InvariantViolation(
                "refcount-no-underflow",
                f"'{self.name}' decremented below zero (at {site})",
            )
        self.value -= 1
        self.decs += 1
        if self.instrumented:
            self.kernel.log_event(self, EV_REF_DEC, site)
        return self.value

    def __repr__(self) -> str:  # pragma: no cover
        return f"RefCount({self.name!r}, value={self.value})"
