"""Probes and samplers must observe without changing the program."""

from probes import HostSampler, Probes, layer_of_span
from suite import Serve, Tenants


def small_serve(kind="epoll", cpus=1, observed=False):
    return Serve("small", kind=kind, nclients=96, cpus=cpus,
                 observed=observed, min_reps=1)


def test_probed_rep_matches_plain_rep():
    w = small_serve()
    plain = w.run_rep(4242)
    with Probes() as probes:
        probed = w.run_rep(4242, probes=probes)
    assert plain.failed_checks == [] and probed.failed_checks == []
    assert probed.sim == plain.sim
    timed = probes.timed
    assert timed["counts"]["clock.charges"] > 0
    syscalls = sum(1 for s in timed["spans"] if s[0].startswith("syscall:"))
    assert syscalls == plain.sim["syscalls"]
    # every span closed, parents precede children, ops advance per wave:
    # 96 clients are one wave (op 0), then the clients drain (op 1)
    for i, (name, op, start, end, parent) in enumerate(timed["spans"]):
        assert start <= end and parent < i and layer_of_span(name)
    assert {s[1] for s in timed["spans"]} == {0, 1}


def test_probes_restore_the_program():
    from repro.kernel.clock import Clock
    from repro.kernel.core import Kernel
    before = (Clock.charge, Kernel.__dict__["current"])
    with Probes():
        assert Clock.charge is not before[0]
    assert (Clock.charge, Kernel.__dict__["current"]) == before


def test_sampled_observed_uring_rep_matches_plain():
    w = small_serve(kind="uring", cpus=2, observed=True)
    plain = w.run_rep(7)
    sampler = HostSampler()
    sampled = w.run_rep(7, sampler=sampler)
    assert plain.failed_checks == [] and sampled.sim == plain.sim
    assert plain.sim["serving_syscalls"] == 0


def test_tenant_rep_accounts_every_request():
    w = Tenants()
    w.events = 40       # a short schedule; its seed has no pinned digest
    rep = w.run_rep(7)
    assert rep.failed_checks == []
    assert rep.accounting.balanced and rep.accounting.requests > 0
    again = w.run_rep(7)
    assert again.sim == rep.sim


def test_corrupted_response_fails_the_check():
    w = small_serve()
    w.expected_digest = lambda kernel, paths: "0" * 64
    rep = w.run_rep(4242)
    assert any("bytes differ" in c for c in rep.failed_checks)
    assert rep.accounting.completed == 0 and rep.accounting.failed == 96
