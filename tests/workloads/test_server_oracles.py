"""Pinned serving oracles: every server kind, bench and scenario paths.

The checked-in digests, cycle counts and SLOs are the behaviour spec of
the HTTP servers (select / epoll / Cosy compound / uring).  These pins
cover what the other suites leave open — ``tests/kernel/test_smp.py``
pins epoll at 50 clients only — so a change to any server's syscall
order, cost, or failure handling shows up here as an exact mismatch:

* ``run_http_bench`` (cpus=1) and ``run_http_bench_smp`` (cpus=2) for
  all four kinds at 300 clients (three waves): cycles, syscalls, NIC
  counters and the digest over every client's bytes;
* the overload scenarios behind BENCH_SCALE: each mix with its own
  serving kinds, and the churn and storm mixes with every keep-alive
  tenant forced onto each ``io_model`` — the sha256 of the SLO report
  (clock, net counters, per-tenant latency and sched-delay summaries)
  plus the leak counters.

Every kernel is booted with an explicit CPU count so the pins hold under
the CI jobs that set ``REPRO_CPUS``.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.kernel import Kernel
from repro.kernel.fs import RamfsSuperBlock
from repro.kernel.net import SocketLayer
from repro.workloads import (HttpBenchConfig, run_http_bench,
                             run_http_bench_smp)
from repro.workloads.scenario import (FaultStorm, ScenarioConfig,
                                      ScenarioRunner, TenantSpec, TrustTier)

KINDS = ("select", "epoll", "cosy", "uring")
NCLIENTS = 300

#: the BENCH_SCALE mixes (benchmarks/bench_scale.py ``MIXES``)
MIXES = {
    "baseline": ScenarioConfig(seed=2026, events=150, churn=0.1,
                               abort_prob=0.2, backlog=32, max_conns=12),
    "churn": ScenarioConfig(seed=2027, events=150, churn=0.55,
                            abort_prob=0.4, backlog=2, max_conns=10),
    "storm": ScenarioConfig(
        seed=2028, events=150, churn=0.25, abort_prob=0.3, backlog=16,
        storms=(FaultStorm("net.tx", rate=0.08, start_frac=0.25,
                           stop_frac=0.6),
                FaultStorm("kmalloc", rate=0.03, start_frac=0.45,
                           stop_frac=0.75))),
    "smp": ScenarioConfig(seed=2029, events=150, churn=0.2,
                          abort_prob=0.25, backlog=16, max_conns=12,
                          cpus=4),
    "uring": ScenarioConfig(
        seed=2030, events=150, churn=0.25, abort_prob=0.25, backlog=16,
        max_conns=12,
        tenants=(
            TenantSpec("web-uring", "http-uring", TrustTier.UNTRUSTED,
                       weight=2.0),
            TenantSpec("web-uring-2", "http-uring", TrustTier.UNTRUSTED,
                       weight=1.5),
            TenantSpec("web-epoll", "http-epoll", TrustTier.UNTRUSTED,
                       weight=1.5),
            TenantSpec("web-cosy", "http-cosy", TrustTier.WARMUP,
                       weight=1.5),
            TenantSpec("mail-postmark", "postmark", weight=0.7),
            TenantSpec("db-warmup", "dbapp", TrustTier.WARMUP, weight=0.7),
        ),
        storms=(FaultStorm("uring.dispatch", rate=0.05,
                           start_frac=0.35, stop_frac=0.65),)),
}

#: (mix, io_model) pairs pinned below; None = the mix's own kinds
SCENARIO_CASES = ([(mix, None) for mix in MIXES]
                  + [(mix, io) for mix in ("churn", "storm")
                     for io in ("select", "epoll", "uring")])


def _boot(cpus: int) -> Kernel:
    k = Kernel(cpus=cpus)
    k.mount_root(RamfsSuperBlock(k))
    k.spawn("bench")
    return k


def _bench(kind: str) -> dict:
    k = _boot(1)
    SocketLayer(k)
    r = run_http_bench(k, kind, HttpBenchConfig(nclients=NCLIENTS))
    return {"user": r.user_cycles, "system": r.system_cycles,
            "elapsed": r.elapsed, "syscalls": r.syscalls,
            "requests": r.requests, "bytes": r.bytes_served,
            "nic": r.nic, "digest": r.digest}


def _bench_smp(kind: str) -> dict:
    k = _boot(2)
    SocketLayer(k, queues=2)
    r = run_http_bench_smp(k, kind, HttpBenchConfig(nclients=NCLIENTS))
    return {"per_cpu": r.per_cpu_elapsed, "syscalls": r.syscalls,
            "shards": r.shard_requests, "bytes": r.bytes_served,
            "nic": r.nic, "digest": r.digest}


def _scenario(mix: str, io_model: str | None) -> dict:
    cfg = replace(MIXES[mix], io_model=io_model)
    result = ScenarioRunner(cfg, kernel=_boot(cfg.cpus)).run()
    report = json.dumps(result.report.to_dict(), sort_keys=True)
    return {"slo_sha256": hashlib.sha256(report.encode()).hexdigest(),
            "sockfs_inodes": result.sockfs_inodes,
            "leaked_sockets": result.report.leaked_sockets}


BENCH_ORACLE = {
    "select": {
        "user": 662860,
        "system": 5899548,
        "elapsed": 6562408,
        "syscalls": 1511,
        "requests": 300,
        "bytes": 1066575,
        "nic": {
            "tx_packets": 1764,
            "rx_packets": 1764,
            "tx_bytes": 1073175,
            "interrupts": 1764,
            "dropped": 0,
        },
        "digest":
            "c6d3dae6200b127c58923abbe83dea93c4910048b2d79efb44d02d74df7aa9c4",
    },
    "epoll": {
        "user": 740860,
        "system": 6300494,
        "elapsed": 7041354,
        "syscalls": 1811,
        "requests": 300,
        "bytes": 1066575,
        "nic": {
            "tx_packets": 1764,
            "rx_packets": 1764,
            "tx_bytes": 1073175,
            "interrupts": 1764,
            "dropped": 0,
        },
        "digest":
            "c6d3dae6200b127c58923abbe83dea93c4910048b2d79efb44d02d74df7aa9c4",
    },
    "cosy": {
        "user": 1188,
        "system": 4050188,
        "elapsed": 4051376,
        "syscalls": 3,
        "requests": 300,
        "bytes": 1066575,
        "nic": {
            "tx_packets": 1764,
            "rx_packets": 1764,
            "tx_bytes": 1073175,
            "interrupts": 1764,
            "dropped": 0,
        },
        "digest":
            "c6d3dae6200b127c58923abbe83dea93c4910048b2d79efb44d02d74df7aa9c4",
    },
    "uring": {
        "user": 32860,
        "system": 4030824,
        "elapsed": 4063684,
        "syscalls": 8,
        "requests": 300,
        "bytes": 1066575,
        "nic": {
            "tx_packets": 1764,
            "rx_packets": 1764,
            "tx_bytes": 1073175,
            "interrupts": 1764,
            "dropped": 0,
        },
        "digest":
            "c6d3dae6200b127c58923abbe83dea93c4910048b2d79efb44d02d74df7aa9c4",
    },
}

BENCH_SMP_ORACLE = {
    "select": {
        "per_cpu": [3288113, 3265715],
        "syscalls": 1514,
        "shards": [150, 150],
        "bytes": 1066575,
        "nic": {
            "tx_packets": 1764,
            "rx_packets": 1764,
            "tx_bytes": 1073175,
            "interrupts": 1764,
            "dropped": 0,
            "rx_queues": 2,
            "lock_contentions": 301,
            "lock_contention_cycles": 14448,
        },
        "digest":
            "2d11cbf3a965a1c35bfa17f735949467e1966ad2b695813fe2e9d6967e72e1a7",
    },
    "epoll": {
        "per_cpu": [3575552, 4318610],
        "syscalls": 1814,
        "shards": [150, 150],
        "bytes": 1066575,
        "nic": {
            "tx_packets": 1764,
            "rx_packets": 1764,
            "tx_bytes": 1073175,
            "interrupts": 1764,
            "dropped": 0,
            "rx_queues": 2,
            "lock_contentions": 731,
            "lock_contention_cycles": 35088,
        },
        "digest":
            "2d11cbf3a965a1c35bfa17f735949467e1966ad2b695813fe2e9d6967e72e1a7",
    },
    "cosy": {
        "per_cpu": [2041747, 2019349],
        "syscalls": 4,
        "shards": [150, 150],
        "bytes": 1066575,
        "nic": {
            "tx_packets": 1764,
            "rx_packets": 1764,
            "tx_bytes": 1073175,
            "interrupts": 1764,
            "dropped": 0,
            "rx_queues": 2,
            "lock_contentions": 301,
            "lock_contention_cycles": 14448,
        },
        "digest":
            "2d11cbf3a965a1c35bfa17f735949467e1966ad2b695813fe2e9d6967e72e1a7",
    },
    "uring": {
        "per_cpu": [2034848, 2012450],
        "syscalls": 0,
        "shards": [150, 150],
        "bytes": 1066575,
        "nic": {
            "tx_packets": 1764,
            "rx_packets": 1764,
            "tx_bytes": 1073175,
            "interrupts": 1764,
            "dropped": 0,
            "rx_queues": 2,
            "lock_contentions": 301,
            "lock_contention_cycles": 14448,
        },
        "digest":
            "2d11cbf3a965a1c35bfa17f735949467e1966ad2b695813fe2e9d6967e72e1a7",
    },
}

SCENARIO_ORACLE = {
    ("baseline", None): {
        "slo_sha256":
            "9d6f0ab45b60e2304b6cf693eb71e1228d36e6d0d17ee9e1fcf3156a9ccd2ee1",
        "sockfs_inodes": 0,
        "leaked_sockets": 0,
    },
    ("churn", None): {
        "slo_sha256":
            "544cf513a00e29560bff0fd9c5422a89252885abf43e3e56515449161baf400f",
        "sockfs_inodes": 0,
        "leaked_sockets": 0,
    },
    ("storm", None): {
        "slo_sha256":
            "b153c322e44ce4f8413e8bf6f6ea169aa156b1a0266bca2b25ebebb2a4841050",
        "sockfs_inodes": 0,
        "leaked_sockets": 0,
    },
    ("smp", None): {
        "slo_sha256":
            "b5a2586d0521d0e008cc43770d242093f9aa6fdce4a490775d7b609712ab2fc4",
        "sockfs_inodes": 0,
        "leaked_sockets": 0,
    },
    ("uring", None): {
        "slo_sha256":
            "ae560032ae4511de839e9623ca323ed420ff4504b7191fd9d2943dc5cc3fa448",
        "sockfs_inodes": 0,
        "leaked_sockets": 0,
    },
    ("churn", "select"): {
        "slo_sha256":
            "9594299bc762d321e2b235a4ed261ce54597d1d4a019087988897647d80b93c3",
        "sockfs_inodes": 0,
        "leaked_sockets": 0,
    },
    ("churn", "epoll"): {
        "slo_sha256":
            "8a1bafed0fd9aee14bf4146fdaa8344c29c544b1cfd8804de9740c0b99eb9216",
        "sockfs_inodes": 0,
        "leaked_sockets": 0,
    },
    ("churn", "uring"): {
        "slo_sha256":
            "087444a5a660aaf0d56380a019178bd38839ba70e237a153d5cc3e7f3ef3ab98",
        "sockfs_inodes": 0,
        "leaked_sockets": 0,
    },
    ("storm", "select"): {
        "slo_sha256":
            "bc4a8d53ddb89248791a62933b1eaf459dbf5cc0d0116d1dccde06f813fd65f7",
        "sockfs_inodes": 0,
        "leaked_sockets": 0,
    },
    ("storm", "epoll"): {
        "slo_sha256":
            "3ab4c729aa0a00b965fef6255fd6662cab2a76ed431e980c98611bf5e3aef24c",
        "sockfs_inodes": 0,
        "leaked_sockets": 0,
    },
    ("storm", "uring"): {
        "slo_sha256":
            "12447136fa1dba43039f0632a47eeda30398d757c650fa17bb4b974d8e7ceef1",
        "sockfs_inodes": 0,
        "leaked_sockets": 0,
    },
}


@pytest.mark.parametrize("kind", KINDS)
def test_http_bench_matches_oracle(kind):
    assert _bench(kind) == BENCH_ORACLE[kind]


@pytest.mark.parametrize("kind", KINDS)
def test_http_bench_smp_matches_oracle(kind):
    assert _bench_smp(kind) == BENCH_SMP_ORACLE[kind]


@pytest.mark.parametrize("mix,io_model", SCENARIO_CASES)
def test_scenario_matches_oracle(mix, io_model):
    assert _scenario(mix, io_model) == SCENARIO_ORACLE[(mix, io_model)]
