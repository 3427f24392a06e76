"""The SMP kernel: CPU identity, clock merge rule, stealing, IPIs,
per-CPU magazines, cross-CPU lock contention, and the bit-identity
contract against the pre-SMP single-CPU kernel (docs/SMP.md).

The oracle tests pin the exact cycle counts and response digest the
pre-SMP kernel produced for two single-flow workloads.  They boot
``Kernel()`` with *no* explicit cpu count on purpose: under the CI
observers job's ``REPRO_CPUS=4`` leg the same workload runs on a 4-CPU
kernel and must still produce bit-identical global totals — single-flow
work never leaves cpu0, per-CPU runqueue locks are charge-free, and the
magazine row is calibrated to the uncontended spinlock pair.
"""

import pytest

from repro.kernel import Kernel
from repro.kernel.clock import Clock, Mode
from repro.kernel.cpu import ENV_CPUS, MAX_CPUS, resolve_cpus
from repro.kernel.fs import RamfsSuperBlock
from repro.kernel.interrupts import IRQ_DISPATCH_COST
from repro.kernel.locks import SpinLock
from repro.kernel.net import SocketLayer
from repro.kernel.process import TaskState
from repro.workloads import (SERVER_KINDS, HttpBenchConfig, PostMark,
                             PostMarkConfig, run_http_bench,
                             run_http_bench_smp)

#: captured from the pre-SMP kernel (PR 7 tree): epoll serving, 50
#: keep-alive clients on ramfs — global clock totals and response digest.
HTTP_ORACLE = {
    "user": 214_820,
    "system": 2_145_685,
    "iowait": 0,
    "elapsed": 1_179_221,
    "digest": "1ecb4521f1a712b9752bf866b214b90c76133a29a1a7724592a51b16ee92840b",
}

#: captured from the pre-SMP kernel: PostMark(nfiles=20, transactions=60,
#: seed=7) on ramfs.
POSTMARK_ORACLE = {"user": 181_981, "system": 1_232_482, "iowait": 0}


def _boot(cpus=None, name="t"):
    k = Kernel() if cpus is None else Kernel(cpus=cpus)
    k.mount_root(RamfsSuperBlock(k))
    k.spawn(name)
    return k


# ------------------------------------------------------------ resolve_cpus

def test_resolve_cpus_explicit_beats_env(monkeypatch):
    monkeypatch.setenv(ENV_CPUS, "8")
    assert resolve_cpus(2) == 2
    assert resolve_cpus() == 8


def test_resolve_cpus_default_is_one(monkeypatch):
    monkeypatch.delenv(ENV_CPUS, raising=False)
    assert resolve_cpus() == 1


def test_resolve_cpus_validation(monkeypatch):
    monkeypatch.delenv(ENV_CPUS, raising=False)
    with pytest.raises(ValueError):
        resolve_cpus(0)
    with pytest.raises(ValueError):
        resolve_cpus(MAX_CPUS + 1)
    with pytest.raises(ValueError):
        Clock(cpus=0)


# -------------------------------------------------------- clock merge rule

def test_clock_merge_rule_sum_and_frontier():
    clock = Clock(cpus=4)
    clock.charge(100, Mode.USER)                    # cpu0
    clock.set_cpu(2)
    clock.charge(300, Mode.SYSTEM)                  # cpu2
    with clock.on_cpu(1):
        clock.charge(50, Mode.IOWAIT)               # cpu1, then back
    assert clock.cpu == 2
    # global totals are the serialized sum, exactly as at cpus=1
    assert (clock.user, clock.system, clock.iowait) == (100, 300, 50)
    # every charge landed on exactly one CPU's shard: sum rule
    assert sum(clock.local_now(c) for c in range(4)) == clock.now == 450
    assert [clock.local_now(c) for c in range(4)] == [100, 50, 300, 0]
    # the wall clock is the frontier
    assert clock.wall_now == 300
    snaps = clock.percpu()
    assert len(snaps) == 4
    assert snaps[2].system == 300 and snaps[2].elapsed == 300
    assert snaps[1].iowait == 50


def test_clock_single_cpu_degenerates():
    clock = Clock()
    clock.charge(70, Mode.SYSTEM)
    assert clock.local_now() == clock.wall_now == clock.now == 70
    assert len(clock.percpu()) == 1
    with pytest.raises(ValueError):
        clock.set_cpu(1)


def test_clock_set_cpu_bounds():
    clock = Clock(cpus=2)
    with pytest.raises(ValueError):
        clock.set_cpu(2)
    clock.set_cpu(1)
    assert clock.cpu == 1


# ----------------------------------------------------- bit-identity oracle

def test_http_serving_matches_pre_smp_oracle():
    k = _boot(name="bench")
    SocketLayer(k)
    r = run_http_bench(k, "epoll", HttpBenchConfig(nclients=50))
    got = {"user": k.clock.user, "system": k.clock.system,
           "iowait": k.clock.iowait, "elapsed": r.elapsed,
           "digest": r.digest}
    assert got == HTTP_ORACLE
    if k.ncpus > 1:
        # single-flow work never left cpu0
        assert k.clock.local_now(0) == k.clock.now
        assert all(k.clock.local_now(c) == 0 for c in range(1, k.ncpus))


def test_postmark_matches_pre_smp_oracle():
    k = _boot(name="bench")
    PostMark(k, PostMarkConfig(nfiles=20, transactions=60, seed=7)).run()
    got = {"user": k.clock.user, "system": k.clock.system,
           "iowait": k.clock.iowait}
    assert got == POSTMARK_ORACLE


# ------------------------------------------------------------- determinism

def test_smp_bench_bit_identical_across_runs(monkeypatch):
    """Same (REPRO_FAULT_SEED, cpus): two boots produce bit-identical
    clocks (global and per-CPU), metrics, and response bytes."""
    monkeypatch.setenv("REPRO_FAULT_SEED", "1")

    def one_run():
        k = _boot(cpus=4, name="bench")
        SocketLayer(k, queues=4)
        r = run_http_bench_smp(k, "epoll", HttpBenchConfig(nclients=200))
        return {
            "global": (k.clock.user, k.clock.system, k.clock.iowait),
            "percpu": [(s.user, s.system, s.iowait) for s in k.clock.percpu()],
            "metrics": k.metrics.snapshot(),
            "digest": r.digest,
            "per_cpu_elapsed": r.per_cpu_elapsed,
        }

    first, second = one_run(), one_run()
    assert first == second


# ------------------------------------------------- placement, IPIs, camera

def test_spawn_places_on_spawning_cpu_by_default():
    k = _boot(cpus=4)
    t = k.spawn("child")
    assert t.cpu == 0 == k.clock.cpu


def test_remote_spawn_sends_enqueue_ipi():
    k = _boot(cpus=4)
    before_sender = k.clock.local_now(0)
    before_target = k.clock.local_now(2)
    t = k.spawn("remote", cpu=2)
    assert t.cpu == 2
    assert k.sched.cpus[2].current is t        # idle CPU adopts it
    assert k.sched.ipis == 1
    # the sender paid the APIC write, the target paid the dispatch
    assert k.clock.local_now(0) - before_sender == k.costs.ipi
    assert k.clock.local_now(2) - before_target == IRQ_DISPATCH_COST


def test_switch_to_remote_current_moves_camera_for_free():
    k = _boot(cpus=2)
    t1 = k.spawn("right", cpu=1)
    driver = k.sched.cpus[0].current
    now = k.clock.now
    k.sched.switch_to(t1)                      # camera hop, not a switch
    assert k.clock.cpu == 1
    assert k.current is t1
    assert k.clock.now == now                  # charged nothing
    k.sched.switch_to(driver)
    assert k.clock.cpu == 0 and k.current is driver
    assert k.clock.now == now


# ---------------------------------------------------------- work stealing

def test_idle_balance_steals_from_most_loaded_cpu():
    k = _boot(cpus=2)
    spare_a = k.spawn("spare_a")               # READY on cpu0 behind driver
    k.spawn("spare_b")
    idle = k.spawn("idle", cpu=1)              # cpu1: only its current task
    k.sched.switch_to(idle)
    assert k.clock.cpu == 1
    before = k.clock.local_now(1)
    stolen = k.sched.balance()
    assert stolen is spare_a                   # first READY in victim order
    assert stolen.cpu == 1
    assert stolen in k.sched.cpus[1].runqueue
    assert stolen not in k.sched.cpus[0].runqueue
    assert k.sched.steals == 1
    # the thief pays the migration on its own local clock
    assert k.clock.local_now(1) - before == k.costs.task_migration


def test_balance_is_a_noop_without_spare_work():
    k = _boot(cpus=2)
    idle = k.spawn("idle", cpu=1)
    k.sched.switch_to(idle)
    assert k.sched.balance() is None
    assert k.sched.steals == 0


def test_preemption_triggers_idle_balance():
    k = _boot(cpus=2)
    spare = k.spawn("spare")                   # READY work waiting on cpu0
    idle = k.spawn("idle", cpu=1)
    k.sched.switch_to(idle)
    with k.faults.inject("sched.preempt", every=1):
        assert k.sched.maybe_preempt()
    assert k.sched.steals == 1
    assert spare.cpu == 1


# ----------------------------------------------- cross-CPU lock contention

def test_cross_cpu_contention_charges_bounded_spin():
    k = _boot(cpus=2)
    other = k.spawn("other", cpu=1)
    lk = SpinLock(k, "contended_x")
    with lk.guard("smp:cpu0"):
        # a long critical section on cpu0: its release lands far ahead of
        # cpu1's local clock on the simulated wall
        k.clock.charge(20_000, Mode.SYSTEM)
    hold = lk._last_hold_cycles
    assert hold >= 20_000
    k.sched.switch_to(other)                   # camera to cpu1, lagging
    assert k.clock.local_now() < lk._last_unlock_local
    lk.lock("smp:cpu1")
    lk.unlock("smp:cpu1")
    assert lk.contentions == 1
    # the spin is bounded by the owner's hold AND the backoff cap, never
    # by the raw clock skew between the CPUs
    assert lk.contention_cycles == k.costs.spinlock_contend_cap < hold
    assert lk.value == lk.contention_cycles


def test_same_cpu_reacquire_is_uncontended():
    k = _boot(cpus=2)
    lk = SpinLock(k, "local_x")
    with lk.guard("smp:a"):
        pass
    with lk.guard("smp:a"):
        pass
    assert lk.contentions == 0
    assert lk.contention_cycles == 0


def test_single_cpu_lock_never_contends():
    k = _boot(cpus=1)
    lk = SpinLock(k, "uni_x")
    for _ in range(3):
        with lk.guard("smp:uni"):
            pass
    assert lk.contentions == 0 and lk.contention_cycles == 0


# ------------------------------------------------------- per-CPU magazines

def test_magazines_enabled_only_on_smp():
    assert _boot(cpus=1).kmalloc._magazines is None
    k = _boot(cpus=4)
    assert k.kmalloc._magazines is not None
    assert len(k.kmalloc._magazines) == 4


def test_magazine_hit_skips_the_shared_lock():
    k = _boot(cpus=2)
    km = k.kmalloc
    a = km.kmalloc(100, "smp:mag")             # locked path (magazine empty)
    km.kfree(a)                                # cached in cpu0's magazine
    locked_acquisitions = km.lock.acquisitions
    before = k.clock.now
    b = km.kmalloc(100, "smp:mag")             # magazine hit
    assert b == a                              # LIFO reuse of the hot addr
    assert km.magazine_hits == 1
    assert km.lock.acquisitions == locked_acquisitions   # no lock taken
    # the hit costs the per-alloc base plus the magazine row — no lock pair
    assert k.clock.now - before == k.costs.kmalloc + k.costs.kmalloc_magazine
    km.kfree(b)


def test_magazines_are_per_cpu():
    k = _boot(cpus=2)
    km = k.kmalloc
    a = km.kmalloc(100, "smp:mag")
    km.kfree(a)                                # lands in cpu0's magazine
    other = k.spawn("other", cpu=1)
    k.sched.switch_to(other)
    b = km.kmalloc(100, "smp:mag")             # cpu1's magazine is empty
    assert km.magazine_hits == 0               # no cross-CPU hit
    assert b != a
    km.kfree(b)


def test_magazine_accounting_balances():
    k = _boot(cpus=2)
    km = k.kmalloc
    addrs = [km.kmalloc(64, "smp:bal") for _ in range(8)]
    for a in addrs:
        km.kfree(a)
    again = [km.kmalloc(64, "smp:bal") for _ in range(8)]
    assert km.magazine_hits == 8               # all served from the magazine
    for a in again:
        km.kfree(a)
    assert km.live_bytes == 0                  # nothing leaked through caches


# -------------------------------------------------------- per-CPU tracing

def test_tracer_attribution_holds_per_cpu():
    k = _boot(cpus=2)
    k.trace.enable()
    t0 = [k.clock.local_now(c) for c in range(2)]
    k.sys.getpid()                             # traced work on cpu0
    with k.clock.on_cpu(1):
        k.clock.charge(500, Mode.SYSTEM)       # untraced work on cpu1
    for c in range(2):
        att = k.trace.attribution(cpu=c)
        assert att.complete, f"cpu{c} attribution incomplete"
        assert att.window_cycles == k.clock.local_now(c) - t0[c]
    assert k.trace.attribution(cpu=1).untraced_cycles == 500
    merged = k.trace.attribution()
    assert merged.complete
    assert merged.window_cycles == sum(
        k.clock.local_now(c) - t0[c] for c in range(2))
    assert "syscall:getpid" in merged.spans


def test_nic_rx_steering_spreads_queues_and_ipis():
    """Multi-queue RX: established flows hash to per-CPU queues, remote
    queues are kicked with net_rx IPIs, and all CPUs see softirq work."""
    k = _boot(cpus=4, name="bench")
    SocketLayer(k, queues=4)
    r = run_http_bench_smp(k, "epoll", HttpBenchConfig(nclients=100))
    assert r.requests == 100
    assert r.nic["rx_queues"] == 4
    assert r.nic["dropped"] == 0
    assert k.sched.ipis > 0
    # RSS steering actually spread serving work across every CPU
    assert all(e > 0 for e in r.per_cpu_elapsed)
    assert r.wall_elapsed == max(r.per_cpu_elapsed)
    assert r.total_elapsed == sum(r.per_cpu_elapsed)
    assert r.speedup > 1.0


@pytest.mark.parametrize("kind", SERVER_KINDS)
def test_smp_bench_on_one_cpu_is_the_single_server_bench(kind):
    """At cpus=1 the sharded entry point is the single-server one: the
    same result, whole-run clock, profiler histograms and lock count."""

    def run(bench):
        k = Kernel(cpus=1, lockdep=True, profile=True)
        k.mount_root(RamfsSuperBlock(k))
        k.spawn("bench")
        SocketLayer(k)
        r = bench(k, kind, HttpBenchConfig(nclients=150))
        observed = {
            "user": k.clock.user, "system": k.clock.system,
            "preemptoff": (k.prof.preemptoff.count, k.prof.preemptoff.sum),
            "wakeup_delay": (k.prof.wakeup_delay.count,
                             k.prof.wakeup_delay.sum),
            "acquisitions": k.lockdep.acquisitions,
        }
        return r, observed

    assert run(run_http_bench_smp) == run(run_http_bench)


@pytest.mark.parametrize("kind", SERVER_KINDS)
@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_sharded_result_splits_user_and_system_per_cpu(cpus, kind):
    k = _boot(cpus=cpus, name="bench")
    SocketLayer(k, queues=cpus)
    r = run_http_bench_smp(k, kind, HttpBenchConfig(nclients=100))
    assert r.requests == sum(r.shard_requests) == 100
    assert len(r.per_cpu_elapsed) == len(r.shard_requests) == cpus
    # ramfs never waits on a disk: serving time is user plus system
    assert r.user_cycles + r.system_cycles == r.elapsed \
        == sum(r.per_cpu_elapsed)
    assert r.wall_elapsed == max(r.per_cpu_elapsed)
    if cpus == 1:
        assert r.speedup == 1.0


# ------------------------------------------------------------ task state

def test_remove_task_clears_percpu_current():
    k = _boot(cpus=2)
    t = k.spawn("gone", cpu=1)
    assert k.sched.cpus[1].current is t
    k.sched.remove_task(t)
    assert t.state == TaskState.ZOMBIE
    assert k.sched.cpus[1].current is None
    assert t not in k.sched.cpus[1].runqueue
