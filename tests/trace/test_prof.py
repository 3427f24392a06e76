"""The sampling profiler and latency tracers (``repro.trace.prof``).

Invariant 0, inherited from the tracer: **profiling has zero cost-model
impact** — the same workload profiled and unprofiled lands on
bit-identical user/system/iowait counts.  On top of that: weighted
samples must track elapsed cycles at one-period quantization, complete
events must relabel the samples that landed inside them, the latency
tracers must fire from their kernel hook sites, and the exports (folded
stacks, flamegraph SVG, Perfetto instants/counter tracks) must carry the
collected data.  The CI ``prof`` job re-asserts the identity run-wide by
executing the kernel suites under ``REPRO_PROF=1``.
"""

import pytest

from repro.kernel.core import Kernel
from repro.kernel.fs import Ext2SuperBlock, RamfsSuperBlock
from repro.kernel.net import SocketLayer
from repro.kernel.vfs.file import O_CREAT, O_RDWR
from repro.trace import write_flamegraph
from repro.trace.flamegraph import flamegraph_svg
from repro.trace.perfetto import chrome_trace
from repro.trace.prof import (ENV_PROF, ENV_PROF_PERIOD, UNTRACED_FRAME,
                              MaxWitness, resolve_period)
from repro.workloads import HttpBenchConfig, run_http_bench_smp


def buckets(k: Kernel) -> tuple[int, int, int]:
    return (k.clock.user, k.clock.system, k.clock.iowait)


def file_workload(k: Kernel) -> None:
    fd = k.sys.open("/w", O_CREAT | O_RDWR)
    for i in range(30):
        k.sys.write(fd, bytes([i % 251]) * 700)
    k.sys.lseek(fd, 0)
    while k.sys.read(fd, 4096):
        pass
    k.sys.close(fd)


def profiled_kernel(fs=RamfsSuperBlock, *, period: int = 1_000,
                    cpus: int = 1) -> Kernel:
    k = Kernel(profile=True, cpus=cpus)
    k.prof.period = period
    k.prof.enable()  # re-arm deadlines with the test period
    k.mount_root(fs(k))
    k.spawn("t0")
    return k


# ------------------------------------------------------------ bit identity


def test_identity_on_disk_workload():
    runs = []
    for profiled in (False, True):
        k = Kernel(profile=profiled)
        k.mount_root(Ext2SuperBlock(k))
        k.spawn("t0")
        file_workload(k)
        runs.append(buckets(k))
    assert runs[0] == runs[1]


def test_identity_on_network_workload():
    runs = []
    for profiled in (False, True):
        k = Kernel(profile=profiled)
        k.mount_root(RamfsSuperBlock(k))
        k.spawn("server")
        SocketLayer(k)
        server_fd = k.sys.socket()
        k.sys.bind(server_fd, 80)
        k.sys.listen(server_fd)
        client = k.spawn("client")
        k.sched.switch_to(client)
        cfd = k.sys.socket(blocking=False)
        k.sys.connect(cfd, 80)
        k.sys.write(cfd, b"ping")
        k.sched.switch_to(k.tasks[0])
        conn = k.sys.accept(server_fd)
        assert k.sys.read(conn, 16) == b"ping"
        runs.append(buckets(k))
    assert runs[0] == runs[1]


def test_identity_on_uring_workload():
    """The ``uring.cq_backlog`` counter track reads every ring's CQ head
    at each sample: that read must charge nothing and leave the TLB as
    it was (sqpoll rings on 2 CPUs, as in the E14 serving bench)."""
    runs = []
    for profiled in (False, True):
        k = Kernel(profile=profiled, cpus=2)
        k.mount_root(RamfsSuperBlock(k))
        k.spawn("t0")
        SocketLayer(k, queues=2)
        r = run_http_bench_smp(k, "uring", HttpBenchConfig(nclients=64))
        runs.append((buckets(k), r.per_cpu_elapsed,
                     k.mmu.tlb_hits, k.mmu.tlb_misses))
    assert runs[0] == runs[1]


def test_identity_versus_trace_only():
    """Profiling on top of tracing adds nothing to the clock either."""
    runs = []
    for profiled in (False, True):
        k = Kernel(profile=profiled)
        if not profiled:
            k.trace.enable()
        k.mount_root(RamfsSuperBlock(k))
        k.spawn("t0")
        file_workload(k)
        runs.append(buckets(k))
    assert runs[0] == runs[1]


def test_profiled_runs_are_deterministic():
    folds = []
    for _ in range(2):
        k = profiled_kernel(Ext2SuperBlock, period=2_000)
        file_workload(k)
        folds.append((k.prof.folded(), k.prof.samples_taken, buckets(k)))
    assert folds[0] == folds[1]


# ---------------------------------------------------------------- sampling


def test_weighted_samples_track_elapsed_cycles():
    """Σ weights == elapsed // period, exactly: the deadline walk never
    loses or double-counts a period boundary."""
    k = Kernel(profile=True)
    k.prof.period = 1_000
    k.prof.enable()
    base = k.clock.local_now(0)  # deadlines armed at base + period
    k.mount_root(Ext2SuperBlock(k))
    k.spawn("t0")
    file_workload(k)
    now = k.clock.local_now(0)
    assert now - base > 10 * k.prof.period
    assert k.prof.samples_taken == (now - base) // k.prof.period


def test_folded_weights_sum_to_samples_taken():
    k = profiled_kernel(Ext2SuperBlock, period=1_500)
    file_workload(k)
    folded = k.prof.folded()
    assert k.prof.samples_taken > 0
    assert sum(folded.values()) == k.prof.samples_taken
    # flamegraph convention: every stack starts with the task name
    assert all(key.split(";")[0] in ("t0", "(idle)") for key in folded)


def test_one_giant_charge_lands_as_one_weighted_sample():
    k = profiled_kernel(period=1_000)
    events_before = k.prof.sample_events
    k.clock.charge_system(50_000)
    assert k.prof.sample_events == events_before + 1
    assert k.prof.samples_taken >= 50


def test_complete_events_relabel_tail_samples():
    """syscall:boundary quanta are recorded retroactively; the samples
    that landed inside them must be re-pointed at the quantum."""
    k = profiled_kernel(period=200)  # denser than the ~1200-cycle trap
    file_workload(k)
    stacks = {";".join(s[5]) for s in k.prof.samples()}
    assert any("syscall:boundary" in st for st in stacks)
    assert any("syscall:write" in st for st in stacks)
    cats = k.prof.category_shares()
    assert cats.get("boundary", 0.0) > 0.0
    assert k.prof.named_fraction() > 0.9


def test_untraced_samples_fold_to_marker():
    k = profiled_kernel(period=500)
    # charge outside any span: the root frame is all that's open
    k.clock.charge_system(5_000)
    folded = k.prof.folded(by_task=False)
    assert UNTRACED_FRAME in folded


def test_samples_capture_cminus_function():
    """When a compiled C-minus function runs under the tracer, samples
    carry the innermost ``cminus:<func>`` frame in the dedicated field."""
    from repro.cminus import CompiledEngine, UserMemAccess, parse
    from repro.kernel.clock import Mode

    src = """
    int spin(int iters) {
        int acc = 0;
        for (int i = 0; i < iters; i++) acc = acc + i * 3;
        return acc;
    }
    """
    k = profiled_kernel(period=200)
    mem = UserMemAccess(k, k.current)
    engine = CompiledEngine(
        parse(src), mem, tracer=k.trace,
        on_op=lambda: k.clock.charge(k.costs.cminus_op, Mode.SYSTEM))
    engine.call("spin", 500)
    cminus = [s[7] for s in k.prof.samples() if s[7] is not None]
    assert cminus and set(cminus) == {"spin"}


def test_smp_sampling_covers_every_cpu():
    k = profiled_kernel(period=500, cpus=2)
    for cpu in range(2):
        k.clock.cpu = cpu
        k.clock.charge_system(5_000)
    seen = {s[0] for s in k.prof.samples()}
    assert seen == {0, 1}


# ---------------------------------------------------------- latency tracers


def test_wakeup_tracer_measures_ready_to_run_delay():
    k = profiled_kernel(period=2_000)
    other = k.spawn("other")  # READY from birth
    k.clock.charge_system(7_000)  # it sits runnable while t0 burns cycles
    k.sched.switch_to(other)
    prof = k.prof
    assert prof.wakeup_delay.count >= 1
    assert prof.wakeup_max.cycles >= 7_000
    assert prof.wakeup_max.task == "other"


def test_irqsoff_tracer_measures_disabled_sections():
    k = profiled_kernel(period=2_000)
    k.irq.local_irq_disable("test")
    k.clock.charge_system(3_000)
    k.irq.local_irq_enable("test")
    assert k.prof.irqsoff.count == 1
    assert k.prof.irqsoff.max >= 3_000
    w = k.prof.irqsoff_max
    assert w.cycles == k.prof.irqsoff.max and w.cpu == 0


def test_irqsoff_only_tracks_outermost_section():
    k = profiled_kernel(period=2_000)
    k.irq.local_irq_disable("outer")
    k.irq.local_irq_disable("inner")
    k.irq.local_irq_enable("inner")
    assert k.prof.irqsoff.count == 0  # still disabled at depth 1
    k.irq.local_irq_enable("outer")
    assert k.prof.irqsoff.count == 1


def test_preemptoff_tracer_fires_between_scheduler_points():
    k = profiled_kernel(Ext2SuperBlock, period=2_000)
    file_workload(k)
    assert k.prof.preemptoff.count >= 1
    assert k.prof.preemptoff_max.cycles > 0


def test_syscall_latency_histograms():
    k = profiled_kernel(Ext2SuperBlock, period=5_000)
    file_workload(k)
    lat = k.prof.syscall_lat
    assert {"open", "write", "read", "close"} <= set(lat)
    assert lat["write"].count == 30
    assert lat["write"].min > 0
    assert all(name in k.prof.syscall_nrs for name in lat)


def test_max_witness_keeps_the_worst_case():
    w = MaxWitness()
    w.offer(10, ts=5, cpu=0, pid=1, task="a", stack=("x",))
    w.offer(7, ts=9, cpu=1, pid=2, task="b", stack=("y",))
    assert w.cycles == 10 and w.task == "a"
    d = w.to_dict()
    assert d["stack"] == ["x"] and d["cycles"] == 10


# ------------------------------------------------------------------ exports


def test_write_folded_roundtrip(tmp_path):
    k = profiled_kernel(Ext2SuperBlock, period=2_000)
    file_workload(k)
    out = tmp_path / "out.folded"
    k.prof.write_folded(out)
    total = 0
    for line in out.read_text().splitlines():
        stack, n = line.rsplit(" ", 1)
        assert stack
        total += int(n)
    assert total == k.prof.samples_taken


def test_flamegraph_svg_structure(tmp_path):
    k = profiled_kernel(Ext2SuperBlock, period=1_000)
    file_workload(k)
    path = write_flamegraph(k.prof.folded(), tmp_path / "fg.svg",
                            title="test flame")
    svg = path.read_text()
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "test flame" in svg
    assert svg.count("<rect") > 3
    assert "syscall:write" in svg


def test_flamegraph_of_nothing_is_still_valid_svg():
    svg = flamegraph_svg({})
    assert svg.startswith("<svg") and "(no samples)" in svg


def test_flamegraph_is_deterministic():
    folded = {"a;b;c": 5, "a;b": 3, "d": 1}
    assert flamegraph_svg(folded) == flamegraph_svg(folded)


def test_perfetto_export_carries_samples_and_counters(tmp_path):
    k = profiled_kernel(Ext2SuperBlock, period=1_000)
    file_workload(k)
    doc = chrome_trace(k.trace, profiler=k.prof)
    instants = [e for e in doc["traceEvents"]
                if e["ph"] == "i" and e["cat"] == "prof"]
    assert instants, "no prof:sample instants in the export"
    assert all("stack" in e["args"] and "weight" in e["args"]
               for e in instants)
    counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert counters, "no counter tracks in the export"
    names = {e["name"] for e in counters}
    assert "sched.runqueue.cpu0" in names
    assert "mmu.tlb_misses" in names
    assert doc["otherData"]["prof_samples"] == k.prof.samples_taken
    assert doc["otherData"]["prof_period_cycles"] == k.prof.period


def test_tracer_counter_events_render():
    k = Kernel()
    k.mount_root(RamfsSuperBlock(k))
    k.spawn("t0")
    k.trace.enable()
    k.trace.counter("my.track", 7)
    doc = chrome_trace(k.trace)
    cs = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert len(cs) == 1
    assert cs[0]["name"] == "my.track" and cs[0]["args"]["value"] == 7


def test_counter_providers_sample_live_state():
    k = profiled_kernel(period=500)
    k.spawn("waiter")  # parked on the runqueue
    k.clock.charge_system(2_000)
    points = k.prof.counter_samples()
    rq = [v for (_, _, name, v) in points if name == "sched.runqueue.cpu0"]
    assert rq and max(rq) >= 1


def test_custom_counter_track():
    k = profiled_kernel(period=500)
    box = {"v": 0}
    k.prof.add_counter("test.box", lambda: box["v"])
    box["v"] = 42
    k.clock.charge_system(1_000)
    assert any(name == "test.box" and v == 42
               for (_, _, name, v) in k.prof.counter_samples())


def test_to_dict_shape():
    k = profiled_kernel(Ext2SuperBlock, period=2_000)
    file_workload(k)
    d = k.prof.to_dict()
    for key in ("period_cycles", "samples", "named_fraction",
                "category_shares", "wakeup_delay", "irqsoff",
                "preemptoff", "syscalls"):
        assert key in d
    assert d["samples"] == k.prof.samples_taken
    assert 0.0 <= d["named_fraction"] <= 1.0


# ------------------------------------------------------------ boot plumbing


def test_env_boot_enables_profiler(monkeypatch):
    monkeypatch.setenv(ENV_PROF, "1")
    monkeypatch.setenv(ENV_PROF_PERIOD, "1234")
    k = Kernel()
    assert k.prof.enabled
    assert k.trace.enabled
    assert k.prof.period == 1234


def test_profile_kwarg_wins_over_env(monkeypatch):
    monkeypatch.setenv(ENV_PROF, "1")
    k = Kernel(profile=False)
    assert not k.prof.enabled


def test_disable_detaches_the_hooks():
    k = profiled_kernel(period=500)
    k.clock.charge_system(1_000)
    before = k.prof.sample_events
    k.prof.disable()
    k.clock.charge_system(5_000)
    assert k.prof.sample_events == before
    assert k.clock._sampler is None
    assert k.trace._prof is None


def test_resolve_period_validation():
    with pytest.raises(ValueError):
        resolve_period(0)
    assert resolve_period(77) == 77
