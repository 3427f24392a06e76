"""Timed and traced runs of one workload.

:func:`timed_run` gives the end-to-end metrics, :func:`traced_run` the
per-layer ledger; both return ``(metrics, notes, calibration_s,
failed_checks, attempted, failed)`` with ``metrics`` mapping each name
to ``(value, unit)``.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import stats
from probes import HostSampler, Probes, layer_of_span
from repro.analysis.slo import histogram_percentile, jain_fairness

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def git_sha() -> str | None:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int, calibration_s: list[float]) -> dict:
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": seed,
            "calibration_s": calibration_s,
            "calibration_ref_s": stats.CALIBRATION_REF_S}


# ---------------------------------------------------------------- timed run

def import_seconds() -> float:
    """Host seconds a fresh interpreter takes to import the benchmark and
    the program (the part of set-up a process pays once)."""
    code = ("import sys, time; t = time.perf_counter(); "
            "sys.path[:0] = sys.argv[1:]; import suite; "
            "print(time.perf_counter() - t)")
    out = subprocess.run(
        [sys.executable, "-c", code, str(BENCH_DIR), str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def timed_run(workload, seed: int, seconds: float, t_import: float):
    """End-to-end metrics: repetitions until ``seconds`` have passed.

    Every input of the run is repeated at least ``workload.min_reps``
    times, and more while another round fits in ``seconds``.  Simulated
    figures come from the first repetition of each input, and every later
    repetition of it must reproduce them exactly.
    """
    inputs = workload.inputs(seed)
    reps, first = [], {}
    failed_checks: list[str] = []
    t0 = perf_counter()

    def another_rep() -> bool:
        # whole rounds (one rep of every input), at least min_reps of
        # them, and another only if it should end within ``seconds``
        if len(reps) < workload.min_reps * len(inputs) or len(reps) % len(inputs):
            return True
        elapsed = perf_counter() - t0
        return elapsed * (1 + len(inputs) / len(reps)) <= seconds

    while another_rep():
        s = inputs[len(reps) % len(inputs)]
        rep = workload.run_rep(s)
        failed_checks += [f"seed {s}: {c}" for c in rep.failed_checks]
        if s in first:
            if rep.sim != first[s].sim:
                failed_checks.append(f"seed {s}: simulated figures changed "
                                     "between repetitions")
        else:
            first[s] = rep
        reps.append(rep)
        gc.collect()

    sims = [first[s] for s in inputs]
    ops = sum(r.ops for r in sims)
    acc = stats.Accounting()
    shares: dict = {}
    for r in sims:
        acc.add(r.accounting)
        for k, v in r.shares.items():
            shares[k] = shares.get(k, 0) + v
    lat = stats.pool_histograms([r.latency for r in sims])
    if all(r.latency_samples is not None for r in sims):
        # serve-*: every sample is at hand, so no bucket interpolation
        samples = [x for r in sims for x in r.latency_samples]
        p50, p99 = (stats.exact_percentile(samples, p) for p in (50, 99))
    else:
        p50, p99 = (histogram_percentile(lat, p) for p in (50, 99))
    tail = stats.samples_above_percentile(lat, 99)
    host_us = [r.timed_s / r.ops * 1e6 for r in reps]
    cal_us = [stats.calibrated(us, r.calibration_s)
              for us, r in zip(host_us, reps)]

    def per_input_median(values):
        """Each input's median rep, pooled over the inputs' ops."""
        return sum(stats.median([v * r.ops for v, r in zip(values, reps)
                                 if r.seed == s]) for s in inputs) / ops
    imports = [t_import, import_seconds(), import_seconds()]
    setup_s = stats.median(imports) + stats.median([r.setup_s for r in reps])
    metrics = {
        "setup_s": (stats.calibrated(setup_s, stats.median(
            [r.calibration_s for r in reps])), "s"),
        "setup_s_raw": (setup_s, "s"),
        "host_us_per_op": (per_input_median(cal_us), "us"),
        "host_us_per_op_raw": (per_input_median(host_us), "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "sim_cycles_per_op": (sum(r.sim["wall_cycles"] for r in sims) / ops,
                              "cycles"),
        "sim_syscalls_per_op": (sum(r.sim["syscalls"] for r in sims) / ops,
                                "count"),
        "sim_lat_p50_cycles": (p50, "cycles"),
        "sim_lat_p99_cycles": (p99, "cycles"),
        "fairness_jain": (jain_fairness(list(shares.values())), "ratio"),
        "completed_frac": (acc.completed_frac, "ratio"),
    }
    if tail < 10:
        failed_checks.append(f"only {tail} latency samples above p99 "
                             f"(of {lat.count}); want at least 10")
    notes = {
        "reps": len(reps), "inputs": inputs,
        "ops_per_rep": [r.ops for r in reps],
        "digests": {s: first[s].sim["digest"] for s in inputs},
        "host_us_per_op_reps": cal_us, "host_us_per_op_raw_reps": host_us,
        "setup_s_reps": [r.setup_s for r in reps], "import_s": imports,
        "latency_samples": lat.count, "latency_samples_above_p99": tail,
        "requests": acc.requests, "completed": acc.completed,
        "refused": acc.refused, "resets": acc.resets,
        "aborted_connections": acc.aborted,
        "failed_frac": acc.failed / acc.requests if acc.requests else 0.0,
    }
    attempted = sum(r.ops for r in reps)
    failed = sum(r.ops for r in reps if r.failed_checks)
    cals = [r.calibration_s for r in reps]
    return metrics, notes, cals, failed_checks, attempted, failed


# --------------------------------------------------------------- traced run

def traced_run(workload, seed: int):
    """Per-layer ledger from one input: untraced, sampled, probed reps."""
    s = workload.inputs(seed)[0]
    failed_checks: list[str] = []
    plain = workload.run_rep(s)
    gc.collect()
    sampler = HostSampler()
    sampled = workload.run_rep(s, sampler=sampler)
    gc.collect()
    probes = Probes()
    with probes:
        probed = workload.run_rep(s, probes=probes)
    gc.collect()
    for name, rep in (("untraced", plain), ("sampled", sampled),
                      ("probed", probed)):
        failed_checks += [f"{name}: {c}" for c in rep.failed_checks]
    for name, rep in (("sampled", sampled), ("probed", probed)):
        if rep.sim != plain.sim:
            diff = sorted(k for k in plain.sim if rep.sim.get(k) != plain.sim[k])
            failed_checks.append(f"{name} run changed simulated figures: {diff}")
    drift = 0.0
    if getattr(workload, "observed", False):
        bare = workload.run_rep(s, observers=False)
        failed_checks += [f"observers off: {c}" for c in bare.failed_checks]
        if bare.sim["digest"] != plain.sim["digest"]:
            failed_checks.append("observers changed the served bytes")
        drift = (plain.sim["wall_cycles"] - bare.sim["wall_cycles"]) / plain.ops

    ops = plain.ops
    m = plain.metrics
    timed = probes.timed
    counts = timed["counts"]
    spans = timed["spans"]
    scanned, ready, scan_max = timed["epoll"]
    self_ns = stats.self_time_by(spans, layer_of_span)
    span_counts: dict[str, int] = {}
    for name, *_ in spans:
        span_counts[name] = span_counts.get(name, 0) + 1

    def per_op(x):
        return x / ops

    def self_us(layer):
        return self_ns.get(layer, 0) / 1e3 / ops

    def ratio(num, den):
        return num / den if den else 0.0

    def metric_sum(prefix, suffixes):
        return sum(v for k, v in m.items()
                   if k.startswith(prefix) and k.endswith(suffixes))

    share = sampler.share
    collects = span_counts.get("net:epoll_collect", 0)
    syscall_spans = sum(n for k, n in span_counts.items()
                        if k.startswith("syscall:"))
    if syscall_spans != plain.sim["syscalls"]:
        failed_checks.append(f"probes saw {syscall_spans} syscalls, the "
                             f"kernel counted {plain.sim['syscalls']}")
    coverage = 1.0 - share("other") - share("bench")
    if coverage < 0.95:
        failed_checks.append(f"layers cover {coverage:.3f} of host samples "
                             "(want >= 0.95)")
    hits, misses = m.get("mmu.tlb_hits", 0), m.get("mmu.tlb_misses", 0)
    bc_hits = metric_sum("bcache.", ".hits")
    bc_miss = metric_sum("bcache.", ".misses")
    cc_hits = m.get("cminus.cache.hits", 0)
    cc_miss = m.get("cminus.cache.misses", 0)
    layers = {
        "net.host_self_us_per_op": (self_us("kernel.net"), "us"),
        "net.epoll_collect_calls_per_op": (per_op(collects), "count"),
        "net.epoll_scanned_per_call": (ratio(scanned, collects),
                                       "count"),
        "net.epoll_scanned_max": (scan_max, "count"),
        "net.epoll_ready_per_scanned": (ratio(ready,
                                              scanned), "ratio"),
        "net.nic_packets_per_op": (per_op(m.get("net.tx_packets", 0)), "count"),
        "net.nic.host_self_us_per_op": (self_us("kernel.net.nic"), "us"),
        "locks.acquires_per_op": (per_op(counts["locks.acquires"]), "count"),
        "locks.host_self_share": (share("kernel.locks"), "share"),
        "locks.contention_cycles_per_op": (
            per_op(timed["contention_cycles"]), "cycles"),
        "irq.toggles_per_op": (per_op(counts["irq.toggles"]), "count"),
        "irq.host_self_share": (share("kernel.interrupts"), "share"),
        "clock.charges_per_op": (per_op(counts["clock.charges"]), "count"),
        "clock.host_self_share": (share("kernel.clock"), "share"),
        "core.current_lookups_per_op": (per_op(counts["core.current_lookups"]),
                                        "count"),
        "syscalls.calls_per_op": (per_op(syscall_spans), "count"),
        "syscalls.serving_calls_per_op": (
            per_op(plain.sim.get("serving_syscalls", plain.sim["syscalls"])),
            "count"),
        "syscalls.host_self_us_per_op": (self_us("kernel.syscalls"), "us"),
        "syscalls.sim_boundary_cycles_per_op": (
            per_op(plain.sim["syscalls"] * plain.program["boundary_cycles"]),
            "cycles"),
        "cminus.host_self_us_per_op": (self_us("cminus"), "us"),
        "cminus.engine_calls_per_op": (per_op(span_counts.get("cminus:call",
                                                              0)), "count"),
        "cminus.codecache_hit_ratio": (ratio(cc_hits, cc_hits + cc_miss),
                                       "ratio"),
        "segments.accesses_per_op": (per_op(counts["segments.accesses"]),
                                     "count"),
        "segments.host_self_share": (share("kernel.segments"), "share"),
        "memory.tlb_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "cosy.compounds_per_op": (per_op(span_counts.get("cosy:compound", 0)),
                                  "count"),
        "cosy.host_self_us_per_op": (self_us("core.cosy"), "us"),
        "sched.switches_per_op": (per_op(m.get("sched.context_switches", 0)),
                                  "count"),
        "sched.preempt_checks_per_op": (per_op(counts["sched.preempt_checks"]),
                                        "count"),
        "sched.ipis_per_op": (per_op(m.get("sched.ipis", 0)), "count"),
        "sched.steals": (m.get("sched.steals", 0), "count"),
        "sched.delay_p50_cycles": (plain.program["sched_delay_p50"], "cycles"),
        "sched.host_self_share": (share("kernel.sched"), "share"),
        "vfs.path_walks_per_op": (per_op(span_counts.get("vfs:path_walk", 0)),
                                  "count"),
        "vfs.host_self_us_per_op": (self_us("kernel.vfs"), "us"),
        "fs.bcache_hit_ratio": (ratio(bc_hits, bc_hits + bc_miss), "ratio"),
        "fs.disk_ios_per_op": (per_op(metric_sum("disk.", (".reads",
                                                            ".writes"))),
                               "count"),
        "uring.sqes_per_op": (per_op(m.get("uring.sqes", 0)), "count"),
        "uring.enters_per_op": (per_op(m.get("uring.enters", 0)), "count"),
        "uring.sqpoll_polls_per_op": (per_op(m.get("uring.sqpoll_polls", 0)),
                                      "count"),
        "uring.host_self_us_per_op": (self_us("kernel.uring"), "us"),
        "observers.trace.host_self_share": (share("trace"), "share"),
        "observers.prof.host_self_share": (share("trace.prof"), "share"),
        "observers.lockdep.host_self_share": (share("safety.lockdep"), "share"),
        "observers.monitor.host_self_share": (share("safety.monitor"),
                                              "share"),
        "observers.sim_drift_cycles_per_op": (drift, "cycles"),
        "workloads.driver_host_share": (share(serving=False), "share"),
        "workloads.server_user_host_share": (share("workloads", serving=True),
                                             "share"),
        "workloads.sim_serving_cycles_per_op": (
            per_op(plain.sim.get("serving_cycles", plain.sim["wall_cycles"])),
            "cycles"),
        "bench.trace_overhead_x": (probed.timed_s / plain.timed_s, "x"),
        "bench.sampled_layer_share": (coverage, "share"),
        "bench.host_samples": (sampler.total, "count"),
    }
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{workload.name}-{s}.tsv"
    with spans_file.open("w") as f:
        f.write("name\top\tstart_ns\tend_ns\tparent\n")
        for span in spans:
            f.write("\t".join(map(str, span)) + "\n")
    notes = {"seed": s, "ops": ops, "spans": len(spans),
             "spans_file": str(spans_file.relative_to(ROOT)),
             "untraced_s": plain.timed_s, "sampled_s": sampled.timed_s,
             "probed_s": probed.timed_s,
             "host_samples_by_layer": {
                 f"{lay}{'/serving' if srv else ''}": n
                 for (lay, srv), n in sorted(sampler.samples.items())}}
    attempted = plain.ops + sampled.ops + probed.ops
    failed = sum(r.ops for r in (plain, sampled, probed) if r.failed_checks)
    cals = [r.calibration_s for r in (plain, sampled, probed)]
    return layers, notes, cals, failed_checks, attempted, failed
