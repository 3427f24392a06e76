"""Named attach points for in-kernel observers.

The §3.3 instrumented kernel hooks monitors into fixed points that cost
nothing while nothing is attached.  :class:`Hooks` is that table for
lockdep, the profiler's latency tracers, syscall record tracers and
preemption-time handlers.  A site fires a point with ``for fn in
kernel.hooks.<point>: fn(...)``; docs/OBSERVABILITY.md lists who fires
and who subscribes to each.  Only ``preempt`` subscribers may charge the
simulated clock.
"""

from __future__ import annotations

from typing import Callable


class Hooks:
    """The kernel's attach-point table.  Points are tuples, so a loop in
    progress is not disturbed by an attach or detach."""

    __slots__ = (
        "lock_acquire", "lock_release",     # (lock, kind, site, subclass)
        "might_sleep",                      # (site, what)
        "irq_disable", "irq_enable",        # (cpu, depth), depth updated
        "hardirq_enter", "hardirq_exit",    # ()
        "softirq_enter", "softirq_exit",    # ()
        "sched_wakeup",                     # (task, delay)
        "preempt_point",                    # (cpu, local_now)
        "syscall",                          # (SyscallRecord), at return
        "preempt",                          # (task), on expired quantum
    )

    def __init__(self) -> None:
        for point in self.__slots__:
            setattr(self, point, ())

    def attach(self, point: str, fn: Callable) -> None:
        """Subscribe ``fn`` to ``point``; it fires after earlier ones."""
        setattr(self, point, getattr(self, point) + (fn,))

    def detach(self, point: str, fn: Callable) -> None:
        """Unsubscribe ``fn`` from ``point`` (ValueError if absent)."""
        fns = list(getattr(self, point))
        fns.remove(fn)
        setattr(self, point, tuple(fns))
