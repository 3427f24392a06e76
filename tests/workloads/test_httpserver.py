"""Differential test: the four HTTP servers (select, epoll, Cosy
compound, uring) must serve byte-identical responses, differing only in
cost."""

import pytest

from repro.kernel import Kernel
from repro.kernel.fs import RamfsSuperBlock
from repro.kernel.net import SocketLayer
from repro.workloads import (SERVER_KINDS, HttpBenchConfig, HttpBenchResult,
                             run_http_bench)

NCLIENTS = 60


def _bench(kind: str) -> HttpBenchResult:
    k = Kernel()
    k.mount_root(RamfsSuperBlock(k))
    k.spawn("init")
    SocketLayer(k)
    return run_http_bench(k, kind, HttpBenchConfig(nclients=NCLIENTS))


@pytest.fixture(scope="module")
def results():
    return {kind: _bench(kind) for kind in SERVER_KINDS}


def test_servers_byte_identical(results):
    digests = {r.digest for r in results.values()}
    assert len(digests) == 1, "servers served different bytes"
    served = {r.bytes_served for r in results.values()}
    assert len(served) == 1 and served.pop() > 0


def test_all_requests_served(results):
    for kind, r in results.items():
        assert r.requests == NCLIENTS, f"{kind} dropped requests"
        assert r.nclients == NCLIENTS


def test_compound_server_minimizes_crossings(results):
    cosy = results["cosy"]
    for kind in ("select", "epoll"):
        assert cosy.syscalls < results[kind].syscalls
        assert cosy.elapsed < results[kind].elapsed
    # the whole wave is one cosy_exec trap: far below one trap per request
    assert cosy.syscalls_per_request < 0.1


def test_user_level_servers_pay_per_request_traps(results):
    # select/epoll event loops take several syscalls per request
    # (accept, read, open, sendfile, close + readiness polling)
    for kind in ("select", "epoll"):
        assert results[kind].syscalls_per_request >= 5


def test_unknown_kind_rejected():
    k = Kernel()
    k.mount_root(RamfsSuperBlock(k))
    k.spawn("init")
    SocketLayer(k)
    with pytest.raises(ValueError):
        run_http_bench(k, "poll", HttpBenchConfig(nclients=2))
