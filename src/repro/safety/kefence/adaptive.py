"""Adaptive Kefence: dynamic protection decisions (§3.5, implemented).

"Because converting all kmalloc calls to vmalloc calls consumes more
memory, we are investigating methods to dynamically decide which memory
should be protected at runtime."

:class:`AdaptiveKefence` is such a method, in the spirit of the paper's
confidence heuristics (§3.5's deinstrumentation, §2.4's trust): decisions
are per *allocation site*.

* every site starts fully protected (guarded vmalloc);
* once a site has completed ``trust_threshold`` allocation/free cycles
  without an overflow, it is sampled: only one in ``sample_rate``
  allocations keeps the guard, the rest drop to plain kmalloc — bounding
  the page-granularity memory cost while retaining statistical coverage;
* an overflow at a site pins it protected forever;
* a hard ``page_budget`` caps outstanding guarded pages: when exceeded,
  new allocations from trusted sites fall back to kmalloc regardless.

The facade interface matches :class:`~repro.safety.kefence.Kefence`, so a
module compiles against either unchanged.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

from repro.safety.kefence.kefence import Kefence, KefenceMode

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel


class AdaptiveKefence:
    """Per-site adaptive guard-page protection."""

    def __init__(self, kernel: "Kernel",
                 mode: KefenceMode = KefenceMode.CRASH, *,
                 trust_threshold: int = 200,
                 sample_rate: int = 16,
                 page_budget: int | None = None):
        if trust_threshold <= 0 or sample_rate <= 0:
            raise ValueError("trust_threshold and sample_rate must be positive")
        self.kernel = kernel
        self.kefence = Kefence(kernel, mode)
        self.trust_threshold = trust_threshold
        self.sample_rate = sample_rate
        self.page_budget = page_budget
        self.clean_cycles: Counter = Counter()
        self.pinned_sites: set[str] = set()
        self._sample_counter: Counter = Counter()
        #: guarded addr -> site (also distinguishes guarded from plain)
        self._guarded: dict[int, str] = {}
        self.guarded_allocs = 0
        self.plain_allocs = 0

    # ------------------------------------------------------------- decisions

    def _should_guard(self, site: str) -> bool:
        if site in self.pinned_sites:
            return True
        if self.page_budget is not None and \
                self.kernel.vmalloc.outstanding_pages >= self.page_budget:
            return False
        if self.clean_cycles[site] < self.trust_threshold:
            return True
        # trusted site: keep statistical coverage via sampling
        self._sample_counter[site] += 1
        return self._sample_counter[site] % self.sample_rate == 0

    # ------------------------------------------------------------ allocator

    def malloc(self, size: int, site: str = "?") -> int:
        if self._should_guard(site):
            addr = self.kefence.malloc(size, site=site)
            self._guarded[addr] = site
            self.guarded_allocs += 1
            return addr
        self.plain_allocs += 1
        return self.kernel.kmalloc.kmalloc(size)

    def free(self, addr: int) -> None:
        site = self._guarded.pop(addr, None)
        if site is None:
            self.kernel.kmalloc.kfree(addr)
            return
        overflowed = any(r.buf_base == addr for r in self.kefence.reports)
        if overflowed:
            # never trust this site again
            self.pinned_sites.add(site)
            self.clean_cycles[site] = 0
        else:
            self.clean_cycles[site] += 1
        self.kefence.free(addr)

    # ----------------------------------------------------------------- stats

    @property
    def reports(self):
        return self.kefence.reports

    def site_status(self, site: str) -> str:
        if site in self.pinned_sites:
            return "pinned-protected"
        if self.clean_cycles[site] >= self.trust_threshold:
            return f"sampled (1/{self.sample_rate})"
        return (f"protected ({self.clean_cycles[site]}"
                f"/{self.trust_threshold} clean)")

    def uninstall(self) -> None:
        self.kefence.uninstall()
