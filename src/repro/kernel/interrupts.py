"""Interrupts: an IRQ controller and a periodic timer.

Two roles in the reproduction:

* the §3.3 monitors verify that "interrupts that are disabled are later
  re-enabled" — :class:`IrqController` emits the disable/enable events
  they watch;
* the paper stresses that the lock-free ring buffer lets one "instrument
  code that is invoked during interrupt handlers without fear that the
  interrupt handler will block" — :class:`TimerInterrupt` runs handlers
  at interrupt time (hooked off the scheduler's preemption points) that
  may themselves emit events, exercising exactly that path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import InvariantViolation
from repro.kernel.clock import Mode
from repro.kernel.locks import EV_IRQ_DISABLE, EV_IRQ_ENABLE

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel

#: cycles for cli/sti and for interrupt entry/exit
IRQ_TOGGLE_COST = 20
IRQ_DISPATCH_COST = 400


class IrqController:
    """CPU interrupt-enable state with save/restore nesting.

    Mirrors ``local_irq_save``/``local_irq_restore``: disables nest, and
    the §3.3 invariant is that every disable is eventually matched.

    Interrupt state is architecturally *per-CPU* (the eflags IF bit): the
    nesting depth is a per-CPU array indexed by the executing CPU, so
    cpu1 disabling interrupts leaves cpu0's enabled.
    """

    def __init__(self, kernel: "Kernel", *, instrumented: bool = False):
        self.kernel = kernel
        self.instrumented = instrumented
        self.toggles = 0
        self._depths = [0] * kernel.ncpus

    @property
    def disable_depth(self) -> int:
        """Nesting depth on the executing CPU."""
        return self._depths[self.kernel.clock.cpu]

    @property
    def enabled(self) -> bool:
        return self.disable_depth == 0

    def local_irq_disable(self, site: str = "?") -> None:
        clock = self.kernel.clock
        clock.charge(IRQ_TOGGLE_COST, Mode.SYSTEM)
        cpu = clock.cpu
        self._depths[cpu] += 1
        depth = self._depths[cpu]
        self.toggles += 1
        for fn in self.kernel.hooks.irq_disable:
            fn(cpu, depth)
        if self.instrumented:
            self.kernel.log_event(self, EV_IRQ_DISABLE, site)

    def local_irq_enable(self, site: str = "?") -> None:
        if self.disable_depth == 0:
            raise InvariantViolation(
                "irq-balanced", f"enable with interrupts already on (at {site})")
        clock = self.kernel.clock
        clock.charge(IRQ_TOGGLE_COST, Mode.SYSTEM)
        cpu = clock.cpu
        self._depths[cpu] -= 1
        depth = self._depths[cpu]
        self.toggles += 1
        for fn in self.kernel.hooks.irq_enable:
            fn(cpu, depth)
        if self.instrumented:
            self.kernel.log_event(self, EV_IRQ_ENABLE, site)

    class _Guard:
        def __init__(self, ctl: "IrqController", site: str):
            self._ctl, self._site = ctl, site

        def __enter__(self):
            self._ctl.local_irq_disable(self._site)
            return self._ctl

        def __exit__(self, *exc):
            self._ctl.local_irq_enable(self._site)
            return False

    def irqs_off(self, site: str = "?") -> "_Guard":
        """``with irq.irqs_off():`` — a local_irq_save/restore pair."""
        return IrqController._Guard(self, site)


IrqHandler = Callable[[], None]


class TimerInterrupt:
    """A periodic timer that fires at scheduler preemption points.

    Handlers run "at interrupt time": interrupts are disabled around them
    and they must not block — which they cannot, because the only
    monitoring path available to them is the lock-free ring buffer.
    """

    def __init__(self, kernel: "Kernel", irq: IrqController,
                 period_cycles: int = 1_000_000):
        if period_cycles <= 0:
            raise ValueError("timer period must be positive")
        self.kernel = kernel
        self.irq = irq
        self.period_cycles = period_cycles
        self.handlers: list[IrqHandler] = []
        self.fires = 0
        self._last_fire = kernel.clock.now
        self._armed = False

    def register_handler(self, handler: IrqHandler) -> None:
        self.handlers.append(handler)

    def arm(self) -> None:
        if not self._armed:
            self.kernel.hooks.attach("preempt", self._on_preempt)
            self._armed = True

    def disarm(self) -> None:
        if self._armed:
            self.kernel.hooks.detach("preempt", self._on_preempt)
            self._armed = False

    def _on_preempt(self, task) -> None:
        now = self.kernel.clock.now
        while now - self._last_fire >= self.period_cycles:
            self._last_fire += self.period_cycles
            self.fire()

    def fire(self) -> None:
        """One tick: IRQ entry, handlers with interrupts off, IRQ exit."""
        self.fires += 1
        self.kernel.clock.charge(IRQ_DISPATCH_COST, Mode.SYSTEM)
        hooks = self.kernel.hooks
        for fn in hooks.hardirq_enter:
            fn()
        try:
            with self.irq.irqs_off("timer:tick"):
                for handler in self.handlers:
                    handler()
        finally:
            for fn in hooks.hardirq_exit:
                fn()
