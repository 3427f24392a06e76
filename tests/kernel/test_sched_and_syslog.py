"""Scheduler behaviour, per-task accounting, and syslog."""

import pytest

from repro.kernel import Kernel
from repro.kernel.fs import RamfsSuperBlock
from repro.kernel.process import TaskState
from repro.kernel.syslog import (KERN_DEBUG, KERN_ERR, KERN_INFO,
                                 KERN_WARNING, Syslog)
from repro.kernel.vfs import O_CREAT, O_WRONLY


@pytest.fixture
def k():
    kern = Kernel()
    kern.mount_root(RamfsSuperBlock(kern))
    kern.spawn("main")
    return kern


# ------------------------------------------------------------------ scheduler

def test_spawn_sets_first_task_running(k):
    assert k.current is not None
    assert k.current.state is TaskState.RUNNING


def test_explicit_switch_charges_and_flushes(k):
    t2 = k.spawn("other")
    cycles = k.clock.now
    k.sched.switch_to(t2)
    assert k.current is t2
    assert k.clock.now - cycles == k.costs.context_switch
    assert k.sched.context_switches == 1
    k.sched.switch_to(k.tasks[0])


def test_switch_to_self_is_free(k):
    cycles = k.clock.now
    k.sched.switch_to(k.current)
    assert k.clock.now == cycles


def test_quantum_expiry_runs_hooks(k):
    seen = []
    k.hooks.attach("preempt", lambda task: seen.append(task.pid))
    k.clock.charge(k.costs.sched_quantum + 1)
    assert k.sched.maybe_preempt() is True
    assert seen == [k.current.pid]
    # immediately after, the quantum is fresh
    assert k.sched.maybe_preempt() is False


def test_timeshare_cost_only_with_other_ready_tasks(k):
    k.clock.charge(k.costs.sched_quantum + 1)
    before = k.clock.now
    k.sched.maybe_preempt()
    solo_cost = k.clock.now - before
    k.spawn("competitor")  # READY
    k.clock.charge(k.costs.sched_quantum + 1)
    before = k.clock.now
    k.sched.maybe_preempt()
    shared_cost = k.clock.now - before
    assert shared_cost >= solo_cost + 2 * k.costs.context_switch


def test_blocked_tasks_do_not_cost_timeshare(k):
    other = k.spawn("sleeper")
    other.state = TaskState.BLOCKED
    k.clock.charge(k.costs.sched_quantum + 1)
    before = k.clock.now
    k.sched.maybe_preempt()
    assert k.clock.now - before < 2 * k.costs.context_switch


def test_per_task_time_accounting(k):
    t = k.current
    fd = k.sys.open("/f", O_CREAT | O_WRONLY)
    k.sys.write(fd, b"x" * 1000)
    k.sys.close(fd)
    assert t.stime > 0
    assert t.utime >= 3 * k.costs.user_syscall_stub


def test_remove_task_picks_new_current(k):
    t1 = k.current
    t2 = k.spawn("next")
    k.sched.remove_task(t1)
    assert k.current is t2
    assert t1.state is TaskState.ZOMBIE


# -------------------------------------------------------------------- syslog

def test_syslog_levels_and_filtering():
    log = Syslog()
    log.printk(KERN_ERR, "bad", cycles=10)
    log.printk(KERN_INFO, "fyi", cycles=20)
    log.printk(KERN_DEBUG, "noise", cycles=30)
    assert len(log) == 3
    errors = log.at_or_above(KERN_WARNING)
    assert [r.message for r in errors] == ["bad"]
    assert log.grep("fy")[0].level == KERN_INFO
    assert "ERR" in str(log.records[0])
    log.clear()
    assert len(log) == 0


def test_syslog_rejects_bad_level():
    with pytest.raises(ValueError):
        Syslog().printk(42, "nope")


def test_kernel_printk_stamps_cycles(k):
    k.clock.charge(1234)
    k.printk(KERN_INFO, "stamped")
    assert k.syslog.records[-1].cycles >= 1234
