"""The three workloads, each run as repetitions of set-up + timed phase.

A repetition boots a fresh kernel (set-up), runs the workload's ops
(timed phase), then checks the program's outputs.  Its :class:`Rep`
carries host times, the deterministic simulated numbers of the timed
phase (``sim``: equal on every repetition of one seed, with or without
probes), and the checks that failed.

All clients are in-process simulated sockets driven closed loop: each
sends its next request only after the previous response was read.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from time import perf_counter

from repro.analysis.slo import histogram_percentile
from repro.kernel import Kernel
from repro.kernel.fs.ramfs import RamfsSuperBlock
from repro.kernel.net import SocketLayer
from repro.kernel.vfs.file import O_RDONLY
from repro.trace.metrics import Histogram
from repro.workloads import httpserver
from repro.workloads.httpserver import (HttpBenchConfig, UringHttpServer,
                                        run_http_bench, run_http_bench_smp)
from repro.workloads.scenario import (HTTP_KINDS, ScenarioConfig,
                                      ScenarioRunner, generate_schedule)

from probes import Patcher
from stats import Accounting, calibrate, pool_histograms

#: digests pinned from a verified run, (workload, input seed) -> sha256:
#: of every client's bytes for serve-*, of the SLO report for tenants
PINNED_DIGESTS = {
    ("serve-epoll-10k", 4242):
        "6ffeb6044a6df14ea204a9a6f4e31696c1a3f105489d045d3614295042f47a53",
    ("serve-uring-observed", 4242):
        "a3af345ef79f75f401dd6827f8caaf8b958e79f4c1f9872235841cf4d0da2568",
    ("tenants-smp4", 2029):
        "44c682ccb2018d664d56f689fe3a2d4f1cb938931ec856e5ea7b5a7e48b446c6",
}


def _wall(kernel: Kernel) -> list[int]:
    """Every CPU's local clock (the simulated wall is their frontier)."""
    clock = kernel.clock
    return [clock.local_now(c) for c in range(kernel.ncpus)]


def _numeric(snapshot: dict) -> dict:
    return {k: v for k, v in snapshot.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)}


@dataclass
class Rep:
    """One repetition's measurements."""

    seed: int
    ops: int = 0
    setup_s: float = 0.0
    timed_s: float = 0.0
    #: mean host seconds of the calibration loop run during the timed
    #: phase (its own time is not in ``timed_s``)
    calibration_s: float = 0.0
    #: deterministic timed-phase numbers; equal across reps of one seed
    sim: dict = field(default_factory=dict)
    accounting: Accounting = field(default_factory=Accounting)
    latency: Histogram = field(default_factory=lambda: Histogram("lat"))
    #: every latency sample, when the workload sees each one (serve-*)
    latency_samples: list | None = None
    #: served bytes or requests per tenant / server shard (Jain input)
    shares: dict = field(default_factory=dict)
    #: program counters over the timed phase (kernel.metrics deltas)
    metrics: dict = field(default_factory=dict)
    #: whole-run program figures the per-layer ledger reads
    program: dict = field(default_factory=dict)
    failed_checks: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed_checks.append(what)


class _TimedPhase:
    """Marks where set-up ends and the timed phase begins and ends.

    ``begin(kernel)`` snapshots every CPU's clock, crossings and the
    metrics registry, starts the probes and sampler (if any) and then the
    host timer; ``finish`` stops them in reverse and records the deltas.

    On a shared host the speed of the CPU changes from one tenth of a
    second to the next.  :meth:`tick`, called between waves or events,
    runs a short calibration loop at most every ``CALIBRATE_EVERY_S``, so
    the calibration samples the same host moments as the workload; the
    loop's own time is taken out of the timed phase.
    """

    CALIBRATE_EVERY_S = 0.1

    def __init__(self, probes=None, sampler=None):
        self.probes = probes
        self.sampler = sampler
        self.t = 0.0
        self._last_cal = 0.0
        self._cal: list[float] = []
        self._cal_spent = 0.0
        self.wall: list[int] = []
        self.syscalls = 0
        self.metrics: dict = {}

    def begin(self, kernel: Kernel) -> None:
        self.wall = _wall(kernel)
        self.syscalls = kernel.sys.total_syscalls
        self.metrics = _numeric(kernel.metrics.snapshot())
        if self.probes is not None:
            self.probes.begin()
        if self.sampler is not None:
            self.sampler.start()
        self.t = perf_counter()
        self.tick()

    def tick(self) -> None:
        t = perf_counter()
        if self._cal and t - self._last_cal < self.CALIBRATE_EVERY_S:
            return
        self._cal.append(calibrate())
        self._last_cal = perf_counter()
        self._cal_spent += self._last_cal - t

    def finish(self, kernel: Kernel, rep: Rep) -> None:
        rep.timed_s = perf_counter() - self.t - self._cal_spent
        rep.calibration_s = sum(self._cal) / len(self._cal)
        if self.sampler is not None:
            self.sampler.stop()
        if self.probes is not None:
            self.probes.end()
        wall = _wall(kernel)
        rep.sim["wall_cycles"] = max(b - a for a, b in zip(self.wall, wall))
        rep.sim["syscalls"] = kernel.sys.total_syscalls - self.syscalls
        after = _numeric(kernel.metrics.snapshot())
        rep.metrics = {k: v - self.metrics.get(k, 0) for k, v in after.items()}


class _ServeHooks(Patcher):
    """Set-up/timed split and per-request latency for ``run_http_bench*``.

    * ``build_docroot`` is set-up: the timed phase starts when it returns,
      and the paths it created are kept for checking the responses.
    * A request's latency is the simulated time (on the serving CPU) from
      the start of its wave's serving phase to the server seeing the
      response sent: all of a wave's clients are queued by then, so this
      is queueing plus service inside the closed-loop wave.
    """

    def __init__(self, start: _TimedPhase, rep: Rep, uring: bool):
        super().__init__()
        self.start = start
        self.hist = rep.latency
        self.samples = rep.latency_samples = []
        self.uring = uring
        self.paths: list[str] = []
        self._wave_start = 0

    def install(self) -> None:
        self.replace(httpserver, "build_docroot", self._docroot)
        server = UringHttpServer if self.uring else httpserver.EpollHttpServer
        self.replace(server, "serve_wave", self._wave)
        if self.uring:
            self.replace(httpserver.UringQueue, "harvest", self._harvest)
        else:
            self.replace(httpserver._HttpServerBase, "_serve_conn",
                         self._served)

    def _observe(self, latency: int) -> None:
        self.hist.observe(latency)
        self.samples.append(latency)

    def _docroot(self, build):
        def wrapped(kernel, cfg):
            self.paths = build(kernel, cfg)
            self.start.begin(kernel)
            return self.paths
        return wrapped

    def _wave(self, serve_wave):
        def wrapped(server, n):
            self.start.tick()
            self._wave_start = server.kernel.clock.local_now()
            return serve_wave(server, n)
        return wrapped

    def _served(self, serve_conn):
        def wrapped(server, conn):
            serve_conn(server, conn)
            self._observe(server.kernel.clock.local_now() - self._wave_start)
        return wrapped

    def _harvest(self, harvest):
        tag = UringHttpServer.TAG_SENDFILE

        def wrapped(q, *args, **kwargs):
            cqes = harvest(q, *args, **kwargs)
            now = q.kernel.clock.local_now()
            for cqe in cqes:
                if cqe.user_data & 7 == tag and cqe.res >= 0:
                    self._observe(now - self._wave_start)
            return cqes
        return wrapped


def _read_file(kernel: Kernel, path: str) -> bytes:
    sys = kernel.sys
    fd = sys.open(path, O_RDONLY)
    try:
        body = bytearray()
        while chunk := sys.read(fd, 65536):
            body += chunk
        return bytes(body)
    finally:
        sys.close(fd)


def _check_pinned(rep: Rep, workload: str) -> None:
    pinned = PINNED_DIGESTS.get((workload, rep.seed))
    if pinned:
        digest = rep.sim["digest"]
        rep.check(digest == pinned,
                  f"digest {digest[:16]} != pinned {pinned[:16]}")


def _ticking(events, start: _TimedPhase):
    """Iterate ``events``, letting the timed phase calibrate between them."""
    for ev in events:
        start.tick()
        yield ev


def _program_figures(kernel: Kernel) -> dict:
    """Whole-run figures the ledger reads from the program itself."""
    costs = kernel.costs
    return {"sched_delay_p50": histogram_percentile(
                kernel.metrics.histogram("sched.delay"), 50),
            "boundary_cycles": (costs.user_syscall_stub + costs.syscall_trap
                                + costs.syscall_dispatch)}


class Serve:
    """Keep-alive HTTP serving through ``run_http_bench`` (cpus=1) or
    ``run_http_bench_smp`` (SMP, one listener per CPU, RSS steering)."""

    def __init__(self, name: str, kind: str, nclients: int, cpus: int,
                 observed: bool, min_reps: int):
        self.name = name
        #: repetitions a timed run makes at least
        self.min_reps = min_reps
        self.kind = kind
        self.nclients = nclients
        self.cpus = cpus
        self.observed = observed

    def inputs(self, seed: int) -> list[int]:
        """Docroot seeds one run covers: the run's own seed."""
        return [seed]

    def boot(self, observers: bool) -> Kernel:
        on = observers and self.observed
        kernel = Kernel(cpus=self.cpus, lockdep=on, profile=on)
        if on:
            kernel.trace.enable()
        kernel.mount_root(RamfsSuperBlock(kernel))
        kernel.spawn("httpd")
        SocketLayer(kernel, queues=self.cpus)
        return kernel

    def expected_digest(self, kernel: Kernel, paths: list[str]) -> str:
        """The digest ``run_http_bench*`` computes over every client's
        drained bytes, rebuilt from the docroot files the clients asked
        for: equal iff every client got exactly its file (sha256)."""
        bodies = {p: _read_file(kernel, p) for p in paths}
        if self.cpus == 1:
            order = [paths[i % len(paths)] for i in range(self.nclients)]
        else:
            # run_http_bench_smp: shard c serves client i of its share
            # with file (i * ncpus + c) % nfiles
            base, rem = divmod(self.nclients, self.cpus)
            order = [paths[(i * self.cpus + c) % len(paths)]
                     for c in range(self.cpus)
                     for i in range(base + (1 if c < rem else 0))]
        digest = hashlib.sha256()
        for p in order:
            body = bodies[p]
            digest.update(len(body).to_bytes(8, "little"))
            digest.update(body)
        return digest.hexdigest()

    def run_rep(self, seed: int, *, probes=None, sampler=None,
                observers: bool = True) -> Rep:
        rep = Rep(seed=seed, ops=self.nclients)
        t0 = perf_counter()
        kernel = self.boot(observers)
        start = _TimedPhase(probes, sampler)
        cfg = HttpBenchConfig(nclients=self.nclients, seed=seed)
        with _ServeHooks(start, rep, uring=self.kind == "uring") \
                as hooks:
            if self.cpus == 1:
                result = run_http_bench(kernel, self.kind, cfg)
            else:
                result = run_http_bench_smp(kernel, self.kind, cfg)
            start.finish(kernel, rep)
        rep.setup_s = start.t - t0
        smp = self.cpus > 1
        rep.sim.update(
            digest=result.digest, requests=result.requests,
            serving_cycles=result.wall_elapsed if smp else result.elapsed,
            serving_syscalls=result.syscalls,
            latency=(rep.latency.count, rep.latency.sum, rep.latency.max))
        rep.shares = ({f"shard{c}": n
                       for c, n in enumerate(result.shard_requests)}
                      if smp else {"httpd": result.requests})
        rep.program = _program_figures(kernel)

        rep.check(result.requests == self.nclients,
                  f"requests {result.requests} != clients {self.nclients}")
        verified = result.digest == self.expected_digest(kernel, hooks.paths)
        rep.check(verified, "a client's bytes differ from the file it asked for")
        _check_pinned(rep, self.name)
        if self.kind == "uring":
            rep.check(result.syscalls == 0,
                      f"{result.syscalls} serving-phase syscalls (want 0)")
        if kernel.lockdep is not None:
            rep.check(not kernel.lockdep.reports,
                      f"lockdep reported {len(kernel.lockdep.reports)} "
                      "violations")
        done = result.requests if verified else 0
        rep.accounting = Accounting(requests=self.nclients, completed=done,
                                    resets=self.nclients - done)
        return rep



class Tenants:
    """The default 9-tenant population on 4 CPUs under the ``smp`` mix.

    One run covers nine scenario seeds (the run's seed and eight derived
    from it) so that its figures average over schedules: one schedule's
    share of expensive batch events alone moves simulated cycles and host
    time per event by about 10% from seed to seed.
    """

    name = "tenants-smp4"
    #: request/batch events per scenario (the schedule adds opens/closes)
    events = 450
    seed_stride = 10007
    schedules = 9
    #: repetitions of each scenario a timed run makes at least
    min_reps = 1

    def inputs(self, seed: int) -> list[int]:
        return [seed + k * self.seed_stride for k in range(self.schedules)]

    def config(self, seed: int) -> ScenarioConfig:
        return ScenarioConfig(seed=seed, events=self.events, churn=0.2,
                              abort_prob=0.25, backlog=16, max_conns=12,
                              monitor=True, cpus=4)

    def run_rep(self, seed: int, *, probes=None, sampler=None) -> Rep:
        rep = Rep(seed=seed)
        t0 = perf_counter()
        cfg = self.config(seed)
        runner = ScenarioRunner(cfg)
        kernel = runner.kernel
        schedule = generate_schedule(cfg)
        rep.ops = len(schedule)
        start = _TimedPhase(probes, sampler)
        start.begin(kernel)
        events = probes.schedule(schedule) if probes is not None else schedule
        result = runner.run(_ticking(events, start))
        start.finish(kernel, rep)
        rep.setup_s = start.t - t0
        report = result.report

        for name, slo in sorted(report.tenants.items()):
            acc = Accounting(requests=slo.requests, completed=slo.completed,
                             refused=slo.refused, resets=slo.resets,
                             aborted=slo.aborted)
            rep.check(acc.balanced,
                      f"{name}: completed+refused+resets != requests")
            rep.accounting.add(acc)
            rep.shares[name] = slo.goodput_bytes
        rep.latency = pool_histograms(
            slo.latency for slo in report.tenants.values()
            if slo.kind in HTTP_KINDS)
        rep.check(report.leaked_sockets == 0,
                  f"{report.leaked_sockets} leaked sockets")
        # a fresh SocketLayer's sockfs is empty; cleanup must return to it
        rep.check(result.sockfs_inodes == 0,
                  f"{result.sockfs_inodes} sockfs inodes left (baseline 0)")
        slo_json = json.dumps(report.to_dict(), sort_keys=True).encode()
        rep.sim.update(digest=hashlib.sha256(slo_json).hexdigest(),
                       faults=len(result.fault_signature))
        _check_pinned(rep, self.name)
        rep.program = _program_figures(kernel)
        return rep


WORKLOADS = {w.name: w for w in (
    Serve("serve-epoll-10k", kind="epoll", nclients=10_000, cpus=1,
          observed=False, min_reps=3),
    Tenants(),
    Serve("serve-uring-observed", kind="uring", nclients=3000, cpus=2,
          observed=True, min_reps=3),
)}
