"""The event dispatcher (center of Figure 1).

"The log_event call invokes an event dispatcher, which in turn invokes a
set of callbacks.  When high performance is needed, an event monitor
should be developed as a kernel module and register a callback with the
dispatcher."  User-space delivery goes through the ring buffer instead.

Attaching a dispatcher to a kernel is what turns a "vanilla" build into an
"instrumented" one; the 3.9% overhead the paper measures for
dispatcher+ring-buffer falls out of the dispatch and enqueue charges here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.kernel.clock import Mode
from repro.safety.monitor.events import Event, SiteTable
from repro.safety.monitor.ringbuf import LockFreeRingBuffer

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel

Callback = Callable[[Event], None]


class EventDispatcher:
    """Fan-out from ``log_event`` to callbacks and the ring buffer."""

    def __init__(self, kernel: "Kernel", *, ring_capacity: int = 4096):
        self.kernel = kernel
        self.callbacks: list[Callback] = []
        self.ring: LockFreeRingBuffer[Event] = LockFreeRingBuffer(ring_capacity)
        self.ring_enabled = False
        self.sites = SiteTable()
        self.events_dispatched = 0
        self._attached = False

    # ------------------------------------------------------------ lifecycle

    def attach(self) -> "EventDispatcher":
        """Hook into the kernel's log_event socket."""
        if not self._attached:
            self.kernel.attach_event_dispatcher(self._on_event)
            self._attached = True
        return self

    def detach(self) -> None:
        if self._attached:
            self.kernel.detach_event_dispatcher()
            self._attached = False

    # ------------------------------------------------------------- registry

    def register_callback(self, callback: Callback) -> None:
        """Register an in-kernel (synchronous) monitor."""
        self.callbacks.append(callback)

    def enable_ring(self) -> None:
        """Start feeding the user-space path (chardev consumers)."""
        self.ring_enabled = True

    # ------------------------------------------------------------- dispatch

    def describe(self) -> str:
        """Figure 1 as text, annotated with live counts."""
        cbs = len(self.callbacks)
        ring = (f"ring[{len(self.ring)}/{self.ring.capacity}, "
                f"pushed {self.ring.total_pushed}, "
                f"dropped {self.ring.overruns}]"
                if self.ring_enabled else "ring[disabled]")
        return (
            f"log_event ({self.events_dispatched} events)\n"
            f"  └─> dispatcher\n"
            f"        ├─> {cbs} in-kernel callback(s)   (synchronous)\n"
            f"        └─> {ring}\n"
            f"              └─> character device ─> libkernevents (user space)"
        )

    def _on_event(self, obj: Any, event_type: int, site: str) -> None:
        costs = self.kernel.costs
        clock = self.kernel.clock
        clock.charge(costs.monitor_dispatch, Mode.SYSTEM)
        event = Event(
            obj_id=id(obj) & ((1 << 64) - 1),
            event_type=event_type,
            site=site,
            value=getattr(obj, "value", 0) or 0,
            cycles=clock.now,
        )
        self.events_dispatched += 1
        for callback in self.callbacks:
            clock.charge(costs.monitor_dispatch, Mode.SYSTEM)
            callback(event)
        if self.ring_enabled:
            clock.charge(costs.monitor_ring_enqueue, Mode.SYSTEM)
            self.ring.try_push(event)
