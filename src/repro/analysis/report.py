"""Paper-vs-measured comparison tables.

Every benchmark prints one of these so EXPERIMENTS.md can record, for each
table/figure in the paper, the published value next to what this
reproduction measures — and whether the *shape* (who wins, by roughly what
factor) holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def pct(new: float, old: float) -> float:
    """Percentage improvement of new over old (positive = new faster)."""
    return 0.0 if old == 0 else 100.0 * (old - new) / old


def fmt_bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if abs(n) < 1024 or unit == "GB":
            return f"{n:,.1f} {unit}" if unit != "B" else f"{n:,.0f} B"
        n /= 1024
    return f"{n:,.1f} GB"


def fmt_seconds(s: float) -> str:
    if s >= 1:
        return f"{s:,.3f} s"
    if s >= 1e-3:
        return f"{s * 1e3:,.3f} ms"
    return f"{s * 1e6:,.1f} µs"


@dataclass
class Row:
    label: str
    paper: str
    measured: str
    holds: bool | None = None  # None = informational row

    @property
    def verdict(self) -> str:
        if self.holds is None:
            return ""
        return "OK" if self.holds else "MISS"


@dataclass
class ComparisonTable:
    """One experiment's paper-vs-measured table."""

    experiment: str
    title: str
    rows: list[Row] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, label: str, paper: str, measured: str,
            holds: bool | None = None) -> None:
        self.rows.append(Row(label, paper, measured, holds))

    def note(self, text: str) -> None:
        self.notes.append(text)

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.rows if r.holds is not None)

    def render(self) -> str:
        width_label = max([len(r.label) for r in self.rows] + [len("metric")])
        width_paper = max([len(r.paper) for r in self.rows] + [len("paper")])
        width_meas = max([len(r.measured) for r in self.rows] + [len("measured")])
        lines = [
            f"== {self.experiment}: {self.title} ==",
            f"{'metric':<{width_label}}  {'paper':<{width_paper}}  "
            f"{'measured':<{width_meas}}  shape",
        ]
        for r in self.rows:
            lines.append(
                f"{r.label:<{width_label}}  {r.paper:<{width_paper}}  "
                f"{r.measured:<{width_meas}}  {r.verdict}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def print(self) -> None:
        print("\n" + self.render())


def verifier_report(report, *, optimize_report=None,
                    deinstrument_disabled: int = 0) -> str:
    """Render the load-time verifier section of an analysis report.

    ``report`` is a :class:`repro.safety.verifier.VerifierReport`
    (duck-typed).  When a KGCC :class:`OptimizeReport` is supplied, the
    section also attributes eliminated checks to their eliminating pass —
    statically proven by the verifier, removed by the classic static pass,
    CSE'd, or (via ``deinstrument_disabled``) disabled dynamically.
    """
    lines = [f"== load-time verifier: {report.filename} =="]
    hist = report.histogram()
    total_funcs = sum(hist.values()) or 1
    for verdict, count in hist.items():
        name = getattr(verdict, "name", str(verdict))
        lines.append(f"  {name:<12} {count:>4} function(s) "
                     f"({100.0 * count / total_funcs:.0f}%)")
    proven, unproven, violation = report.site_stats()
    sites = proven + unproven + violation
    if sites:
        lines.append(f"  check sites: {sites} total — {proven} proven "
                     f"({100.0 * proven / sites:.0f}%), {unproven} unproven, "
                     f"{violation} violations")
    else:
        lines.append("  check sites: none")
    for name in report.rejected():
        for reason in report.functions[name].reject_reasons():
            lines.append(f"  REJECT {name}: {reason}")
    lines.append(f"  load-time work: {report.total_nodes} AST nodes analyzed")
    if optimize_report is not None:
        lines.append("  checks eliminated by pass:")
        lines.append(f"    static (sizeof/const bounds): "
                     f"{optimize_report.checks_removed_static}")
        lines.append(f"    verifier (abstract interp):   "
                     f"{optimize_report.checks_removed_verified}")
        lines.append(f"    CSE:                          "
                     f"{optimize_report.checks_removed_cse}")
        if deinstrument_disabled:
            lines.append(f"    dynamic deinstrumentation:    "
                         f"{deinstrument_disabled}")
        lines.append(f"    remaining at run time:        "
                     f"{optimize_report.checks_after - deinstrument_disabled}")
    return "\n".join(lines)


def code_cache_report(cache) -> str:
    """Render the C-minus code-cache section of an analysis report.

    ``cache`` is a :class:`repro.cminus.compile.CodeCache` (duck-typed —
    anything with a ``stats()`` dict of hits/misses/invalidations/
    compiles/entries works).  Hit rate is hits over all lookups;
    invalidations count generation bumps observed at lookup time
    (hotpatch, (de)instrumentation, re-registration).
    """
    s = cache.stats()
    lookups = s["hits"] + s["misses"]
    lines = ["== c-minus code cache =="]
    if lookups:
        lines.append(f"  lookups: {lookups} — {s['hits']} hits "
                     f"({100.0 * s['hits'] / lookups:.0f}%), "
                     f"{s['misses']} misses")
    else:
        lines.append("  lookups: none")
    lines.append(f"  compiles: {s['compiles']}, invalidations: "
                 f"{s['invalidations']}, live entries: {s['entries']}")
    return "\n".join(lines)


def fault_injection_report(registry) -> str:
    """Render per-failpoint hit/injected/observed counters plus the tail of
    the deterministic injection trace — the report benchmarks print when
    they ran under an armed fault schedule (``REPRO_FAULT_SEED``)."""
    lines = ["== fault injection =="]
    stats = registry.stats()
    width = max([len(name) for name in stats] + [len("failpoint")])
    lines.append(f"{'failpoint':<{width}}  {'hits':>8}  {'injected':>8}  "
                 f"{'observed':>8}")
    any_traffic = False
    for name, (hits, injected, observed) in stats.items():
        if not hits:
            continue
        any_traffic = True
        lines.append(f"{name:<{width}}  {hits:>8}  {injected:>8}  {observed:>8}")
    if not any_traffic:
        lines.append("  (no failpoints armed)")
    tail = registry.trace[-10:]
    if tail:
        lines.append(f"  trace: {len(registry.trace)} decisions, last "
                     f"{len(tail)}:")
        for rec in tail:
            lines.append(f"    {rec}")
    return "\n".join(lines)


def lockdep_report(kernel) -> str:
    """Render the concurrency sanitizer's findings for one kernel.

    Summary table of lock classes (kind, irq-usage, hit counts) followed
    by every violation splat; "lockdep: disabled" when the kernel booted
    without a validator (no ``Kernel(lockdep=True)`` / ``REPRO_LOCKDEP``).
    """
    validator = kernel.lockdep
    if validator is None:
        return "lockdep: disabled"
    return validator.render()


def metrics_report(metrics, prefix: str = "") -> str:
    """Render the kernel-wide metrics registry (``kernel.metrics``).

    ``metrics`` is a :class:`repro.trace.metrics.MetricsRegistry`; an
    optional ``prefix`` filters to one subsystem's namespace
    (``"mmu."``, ``"fault."``, ``"lock."``, ...).
    """
    return metrics.render(prefix)


#: metric families the grouped report renders by default: the PR 7-9
#: namespaces that previously only existed as raw registry dumps.
DEFAULT_METRIC_FAMILIES = ("lockdep.", "sched.", "uring.")


def metric_families_report(metrics,
                           families: tuple[str, ...] = DEFAULT_METRIC_FAMILIES
                           ) -> str:
    """Render the registry grouped into subsystem families, expanding
    per-CPU counter shards.

    Where :func:`metrics_report` prints one flat value per metric, this
    report sections the namespace by family prefix and shows each
    :class:`~repro.trace.metrics.PercpuCounter` as its summed total
    *plus* the per-CPU shard split (``PercpuCounter.per_cpu()``) — on an
    SMP kernel, whether the switches happened on one CPU or four is the
    whole story.  Families with no registered metrics render as absent
    rather than failing, so the report is safe on any kernel.
    """
    from repro.trace.metrics import Histogram, PercpuCounter

    lines = ["== metric families =="]
    for family in families:
        rows = [name for name in metrics.names() if name.startswith(family)]
        lines.append(f"-- {family.rstrip('.')} --")
        if not rows:
            lines.append("  (none registered)")
            continue
        for name in rows:
            m = metrics.get(name)
            if isinstance(m, PercpuCounter):
                shards = m.per_cpu()
                split = " ".join(f"cpu{i}={v}" for i, v in enumerate(shards))
                lines.append(f"  {name:<40} {m.value} [{split}]")
            elif isinstance(m, Histogram):
                lines.append(f"  {name:<40} n={m.count} sum={m.sum} "
                             f"mean={m.mean:.1f} max={m.max}")
            else:
                value = m.value
                shown = f"{value:.3f}" if isinstance(value, float) \
                    and not float(value).is_integer() else f"{int(value)}"
                lines.append(f"  {name:<40} {shown}")
    return "\n".join(lines)


def prof_report(prof, top: int = 15) -> str:
    """Render one profiler's findings: hottest folded stacks, category
    sample shares, the latency-tracer histograms with their max-latency
    witnesses, and the per-syscall latency table.

    ``prof`` is a :class:`repro.trace.prof.Profiler` (enabled now or
    previously — disabled profilers keep their samples readable).
    """
    from repro.analysis.slo import latency_summary

    lines = [f"== profile: {prof.samples_taken} weighted samples "
             f"(period {prof.period} cyc) =="]
    if not prof.samples_taken:
        lines.append("  (no samples; was the profiler enabled?)")
        return "\n".join(lines)
    lines.append(f"  named-span fraction: {prof.named_fraction():.4f}")
    lines.append("  category shares:")
    for cat, share in sorted(prof.category_shares().items(),
                             key=lambda kv: -kv[1]):
        lines.append(f"    {cat:<12} {100.0 * share:6.2f}%")
    folded = prof.folded()
    total = sum(folded.values()) or 1
    lines.append(f"  hottest stacks (top {top}):")
    for stack, n in sorted(folded.items(), key=lambda kv: -kv[1])[:top]:
        lines.append(f"    {n:>7} ({100.0 * n / total:5.2f}%)  {stack}")

    def tracer_block(title: str, hist, witness) -> None:
        if not hist.count:
            lines.append(f"  {title}: (no events)")
            return
        s = latency_summary(hist)
        lines.append(f"  {title}: n={s['count']} p50={s['p50']:.0f} "
                     f"p99={s['p99']:.0f} max={s['max']}")
        stack = ";".join(witness.stack) or "(no open span)"
        lines.append(f"    worst: {witness.cycles} cyc on cpu{witness.cpu} "
                     f"task={witness.task} at {stack}")

    tracer_block("wakeup latency", prof.wakeup_delay, prof.wakeup_max)
    tracer_block("irqsoff", prof.irqsoff, prof.irqsoff_max)
    tracer_block("preemptoff", prof.preemptoff, prof.preemptoff_max)
    if prof.syscall_lat:
        lines.append("  syscall latency (cycles):")
        for name in sorted(prof.syscall_lat,
                           key=lambda n: -prof.syscall_lat[n].sum):
            h = prof.syscall_lat[name]
            s = latency_summary(h)
            lines.append(f"    {name:<12} nr={prof.syscall_nrs[name]:<4} "
                         f"n={s['count']:<6} p50={s['p50']:.0f} "
                         f"p99={s['p99']:.0f} max={s['max']}")
    return "\n".join(lines)
