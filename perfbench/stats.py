"""Arithmetic the benchmark reports with.

Medians, the host calibration loop, request accounting, pooled
power-of-two latency histograms, span self time, and the name/unit rules
BENCHMARK.json metrics must follow.  ``tests/test_stats.py`` covers each
piece.
"""

from __future__ import annotations

import math
import re
import statistics
import time
from dataclasses import dataclass

from repro.trace.metrics import Histogram

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")

#: rounds of the short calibration run between waves or events
MICRO_ROUNDS = 300

#: host seconds a ``calibrate(MICRO_ROUNDS)`` pass takes on the reference
#: host (a 2-core x86-64 VM, CPython 3.11); calibrated host times are in
#: that host's units
CALIBRATION_REF_S = 0.0009

#: how host time scales with the calibration loop's time as neighbours
#: load the CPU.  The tight loop slows by up to 2x where the simulator
#: slows by about the square root of that (log-log slopes of 0.45 to 0.75
#: measured per repetition and per run on the reference host), so dividing
#: by the full ratio over-corrects.  Over the same runs of the three
#: workloads, the spread of host time per op was 1-3% with 0.5, against
#: 2-8% uncalibrated and 2-10% divided by the full ratio.
CALIBRATION_EXPONENT = 0.5


def valid_name(name: str) -> bool:
    """A metric or workload name: letter/digit first, ≤64 of [A-Za-z0-9_.-]."""
    return bool(NAME_RE.fullmatch(name))


def valid_unit(unit: str) -> bool:
    """A unit: 1 to 16 of letters, digits, ``_ / % . -``."""
    return bool(UNIT_RE.fullmatch(unit))


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def calibrate(rounds: int = MICRO_ROUNDS) -> float:
    """Host seconds for a fixed interpreter workload.

    The loop exercises what the simulator spends its host time on —
    attribute access, small-dict updates, method calls and integer
    arithmetic — so a slower or busier host slows it by about as much as
    it slows a workload.  Run it between the waves or events of a timed
    phase, so that it samples the same host moments as the workload.
    """
    class _Acc:
        __slots__ = ("n", "cycles")

        def __init__(self):
            self.n = 0
            self.cycles = 0

        def charge(self, c: int) -> None:
            self.n += 1
            self.cycles += c

    acc = _Acc()
    table: dict[int, int] = {}
    t0 = time.perf_counter()
    for i in range(rounds):
        for j in range(16):
            acc.charge(i ^ j)
            table[j] = table.get(j, 0) + (i & 7)
    elapsed = time.perf_counter() - t0
    if acc.n != rounds * 16:  # pragma: no cover - keeps the loop honest
        raise RuntimeError("calibration loop miscounted")
    return elapsed


def calibrated(host_s: float, calibration_s: float) -> float:
    """``host_s`` as it would read on the reference host."""
    return host_s * (CALIBRATION_REF_S / calibration_s) ** CALIBRATION_EXPONENT


@dataclass
class Accounting:
    """Where every attempted request went."""

    requests: int = 0
    completed: int = 0
    refused: int = 0
    resets: int = 0
    #: connections the clients hung up on purpose; not requests
    aborted: int = 0

    def add(self, other: "Accounting") -> None:
        self.requests += other.requests
        self.completed += other.completed
        self.refused += other.refused
        self.resets += other.resets
        self.aborted += other.aborted

    @property
    def failed(self) -> int:
        """Requests refused or reset: no verified response."""
        return self.refused + self.resets

    @property
    def balanced(self) -> bool:
        """Every request ended exactly one way."""
        return self.completed + self.refused + self.resets == self.requests

    @property
    def completed_frac(self) -> float:
        return self.completed / self.requests if self.requests else 0.0


def pool_histograms(hists) -> Histogram:
    """One power-of-two histogram holding every sample of ``hists``.

    Buckets add exactly, so ``histogram_percentile`` on the pool is the
    SLO layer's estimator applied to all samples at once, not an average
    of per-histogram percentiles.
    """
    pooled = Histogram("pooled")
    for h in hists:
        if not h.count:
            continue
        pooled.count += h.count
        pooled.sum += h.sum
        pooled.min = h.min if pooled.min is None else min(pooled.min, h.min)
        pooled.max = max(pooled.max, h.max)
        for b, n in h.buckets.items():
            pooled.buckets[b] = pooled.buckets.get(b, 0) + n
    return pooled


def exact_percentile(values: list[int], pct: float) -> float:
    """Nearest-rank percentile of raw samples."""
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)])


def samples_above_percentile(hist: Histogram, pct: float) -> int:
    """How many samples rank above the ``pct`` percentile: the tail a
    percentile estimate rests on (at least ten for a trustworthy p99)."""
    return hist.count - math.ceil(pct / 100.0 * hist.count)


def span_self_times(spans: list[tuple]) -> list[int]:
    """Self time of each span: its duration minus its children's.

    ``spans`` holds ``(name, op, start, end, parent)`` tuples where
    ``parent`` indexes the enclosing span or is -1.  Spans on one thread
    nest, so children never overlap and their durations simply add.
    """
    own = [end - start for _name, _op, start, end, _parent in spans]
    for _name, _op, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def self_time_by(spans: list[tuple], key) -> dict[str, int]:
    """Sum span self time by ``key(name)``; spans keyed None are skipped."""
    out: dict[str, int] = {}
    for span, own in zip(spans, span_self_times(spans)):
        k = key(span[0])
        if k is not None:
            out[k] = out.get(k, 0) + own
    return out
