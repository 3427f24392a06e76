"""The benchmark's own arithmetic and its BENCHMARK.json contract."""

import json
from pathlib import Path

import pytest

import stats
from probes import layer_of_module, layer_of_span
from repro.analysis.slo import histogram_percentile
from repro.trace.metrics import Histogram

SPEC = json.loads((Path(stats.__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------- spans

def test_self_time_subtracts_direct_children_only():
    spans = [
        ("serve:wave", 0, 0, 100, -1),      # 100 long, children 30 + 40
        ("syscall:read", 0, 10, 40, 0),     # 30 long, child 5
        ("vfs:path_walk", 0, 20, 25, 1),    # leaf
        ("syscall:open", 0, 50, 90, 0),     # 40 long, leaf
    ]
    assert stats.span_self_times(spans) == [30, 25, 5, 40]


def test_self_times_sum_to_root_duration():
    spans = [("a", 0, 0, 50, -1), ("b", 0, 5, 20, 0), ("c", 0, 6, 9, 1),
             ("d", 1, 60, 70, -1)]
    own = stats.span_self_times(spans)
    assert sum(own) == 50 + 10


def test_self_time_by_layer_skips_unmapped_spans():
    spans = [("syscall:read", 0, 0, 10, -1), ("nic:kick", 0, 2, 6, 0),
             ("mystery", 0, 20, 30, -1)]
    by = stats.self_time_by(spans, layer_of_span)
    assert by == {"kernel.syscalls": 6, "kernel.net.nic": 4}


def test_layer_of_module():
    assert layer_of_module("repro.kernel.net.epoll") == "kernel.net"
    assert layer_of_module("repro.kernel.clock") == "kernel.clock"
    assert layer_of_module("repro.cminus.compile") == "cminus"
    assert layer_of_module("repro.trace.prof") == "trace.prof"
    assert layer_of_module("repro.trace.tracepoints") == "trace"
    assert layer_of_module("repro.safety.lockdep.validator") == "safety.lockdep"
    assert layer_of_module("hashlib") is None
    assert layer_of_module("repro") is None


# ------------------------------------------------------------ accounting

def test_accounting_balances_and_fractions():
    acc = stats.Accounting(requests=10, completed=7, refused=2, resets=1,
                           aborted=4)
    assert acc.balanced
    assert acc.failed == 3
    assert acc.completed_frac == pytest.approx(0.7)


def test_aborted_connections_are_not_requests():
    # an abort is a client hanging up a connection, not a request outcome
    acc = stats.Accounting(requests=5, completed=5, aborted=3)
    assert acc.balanced and acc.failed == 0 and acc.completed_frac == 1.0


def test_unbalanced_accounting_is_detected():
    assert not stats.Accounting(requests=5, completed=3, resets=1).balanced


def test_accounting_add():
    total = stats.Accounting()
    total.add(stats.Accounting(requests=4, completed=3, refused=1))
    total.add(stats.Accounting(requests=2, completed=1, resets=1, aborted=1))
    assert (total.requests, total.completed, total.failed, total.aborted) \
        == (6, 4, 2, 1)
    assert total.balanced


# ----------------------------------------------------- pooled histograms

def _hist(values):
    h = Histogram("h")
    for v in values:
        h.observe(v)
    return h


def test_pooled_percentiles_equal_one_histogram_of_all_samples():
    a = [5, 900, 1200, 40_000, 3, 77]
    b = [65_000, 12, 2048, 2049, 700, 700, 70_000]
    pooled = stats.pool_histograms([_hist(a), Histogram("empty"), _hist(b)])
    whole = _hist(a + b)
    assert pooled.buckets == whole.buckets
    assert (pooled.count, pooled.min, pooled.max, pooled.sum) == \
        (whole.count, whole.min, whole.max, whole.sum)
    for pct in (50, 90, 99):
        assert histogram_percentile(pooled, pct) == \
            histogram_percentile(whole, pct)


def test_pooling_nothing_gives_an_empty_histogram():
    pooled = stats.pool_histograms([Histogram("x")])
    assert pooled.count == 0 and histogram_percentile(pooled, 99) == 0.0


def test_samples_above_percentile():
    assert stats.samples_above_percentile(_hist(range(1000)), 99) == 10
    assert stats.samples_above_percentile(_hist(range(999)), 99) == 9
    assert stats.samples_above_percentile(_hist(range(100)), 50) == 50


def test_exact_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.exact_percentile(values, 50) == 50
    assert stats.exact_percentile(values, 99) == 99
    assert stats.exact_percentile(values, 100) == 100
    assert stats.exact_percentile([7], 99) == 7
    assert stats.exact_percentile([3, 1, 2], 50) == 2


def test_calibrated_is_identity_at_the_reference_speed():
    ref = stats.CALIBRATION_REF_S
    assert stats.calibrated(2.0, ref) == pytest.approx(2.0)
    # a host whose loop runs 4x slower reads 2x faster once calibrated
    assert stats.calibrated(2.0, 4 * ref) == pytest.approx(
        2.0 / 4 ** stats.CALIBRATION_EXPONENT)


def test_calibration_is_positive():
    assert stats.calibrate(rounds=100) > 0


# --------------------------------------------------------- metric names

@pytest.mark.parametrize("name", ["setup_s", "net.nic.host_self_us_per_op",
                                  "9lives", "a-b_c.d"])
def test_valid_names(name):
    assert stats.valid_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "has space", "x" * 65,
                                  "µs", "a/b"])
def test_invalid_names(name):
    assert not stats.valid_name(name)


def test_units():
    for unit in ("ms", "s", "1/s", "count", "%", "cycles", "x"):
        assert stats.valid_unit(unit)
    for unit in ("", "µs", "a b", "x" * 17):
        assert not stats.valid_unit(unit)


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert valid_metric(m)
    assert all(stats.valid_name(n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def valid_metric(m):
    return stats.valid_unit(m["unit"]) and m["better"] in ("lower", "higher")


def test_workloads_match_the_suite():
    from suite import WORKLOADS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
