"""The open-loop load generator: rates, latency accounting."""

import pytest

from repro.harness.experiment import LAYOUTS
from repro.scale import (
    OpenLoopConfig,
    ScaleOutCluster,
    run_open_loop,
)
from repro.sim.engine import Environment
from repro.systems.base import make_stack


def make_testbed(system="rio", initiators=2, tenants=4, **kwargs):
    env = Environment()
    cluster = ScaleOutCluster(
        env, LAYOUTS["optane"], num_initiators=initiators, seed=11, **kwargs
    )
    stack = make_stack(system, cluster, num_streams=tenants)
    return cluster, stack


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------


def test_open_loop_tracks_offered_rate_below_saturation():
    cluster, stack = make_testbed()
    run = run_open_loop(cluster, stack, OpenLoopConfig(
        offered_iops=50_000, duration=2e-3, seed=9,
    ))
    assert run.offered_iops == 50_000
    # Far below the knee: achieved within 20% of offered (Poisson noise
    # over a 2ms window, but nowhere near saturation).
    assert run.achieved_iops == pytest.approx(50_000, rel=0.2)
    assert run.latency.count > 0
    assert run.initiator_busy_cores > 0
    assert run.target_busy_cores > 0
    assert run.iops_per_busy_core > 0


def test_open_loop_saturates_past_the_knee():
    """Offered >> capacity: achieved plateaus and tail latency explodes
    (latency is charged from intended arrival, so queueing delay counts)."""
    cluster, stack = make_testbed(system="linux", tenants=2)
    below = run_open_loop(cluster, stack, OpenLoopConfig(
        offered_iops=25_000, tenants=2, duration=2e-3, seed=9,
    ))
    cluster, stack = make_testbed(system="linux", tenants=2)
    above = run_open_loop(cluster, stack, OpenLoopConfig(
        offered_iops=120_000, tenants=2, duration=2e-3, seed=9,
    ))
    assert above.achieved_iops < 120_000 * 0.75  # nowhere near offered
    assert above.achieved_iops > below.achieved_iops  # but more than idle
    assert above.latency.p99 > 5 * below.latency.p99  # hockey stick


def test_open_loop_is_deterministic():
    results = []
    for _ in range(2):
        cluster, stack = make_testbed()
        run = run_open_loop(cluster, stack, OpenLoopConfig(
            offered_iops=100_000, duration=1e-3, seed=9,
        ))
        results.append((run.ops, run.latency.p50, run.latency.p99,
                        run.initiator_busy_cores))
    assert results[0] == results[1]


def test_open_loop_inflight_cap_bounds_admission(monkeypatch):
    import repro.scale.loadgen as loadgen

    monkeypatch.setattr(loadgen, "OPEN_LOOP_INFLIGHT_CAP", 2)
    cluster, stack = make_testbed(system="linux", tenants=1)
    run = run_open_loop(cluster, stack, OpenLoopConfig(
        offered_iops=500_000, tenants=1, duration=1e-3, seed=5,
    ))
    # Admission throttled to ~2 in flight, yet the run still made progress.
    assert 0 < run.achieved_iops < 500_000


def test_open_loop_rejects_bad_config():
    cluster, stack = make_testbed()
    with pytest.raises(ValueError):
        run_open_loop(cluster, stack, OpenLoopConfig(offered_iops=0))
    with pytest.raises(ValueError):
        run_open_loop(cluster, stack, OpenLoopConfig(
            offered_iops=1000, tenants=0,
        ))


# ----------------------------------------------------------------------
# Goodput and failures by cause
# ----------------------------------------------------------------------


def _record_runs(monkeypatch):
    """Make every probe's ``run_open_loop`` call append its result to the
    returned list."""
    import repro.scale

    runs = []

    def recording(*args, **kwargs):
        runs.append(run_open_loop(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(repro.scale, "run_open_loop", recording)
    return runs


def _assert_accounting(run):
    assert run.failed_ops > 0  # the failure path ran
    assert run.good_ops + run.failed_ops == run.ops
    assert sum(run.failures_by_cause.values()) == run.failed_ops
    assert len(run.good_latencies) == run.tenants
    assert sum(map(len, run.good_latencies)) <= run.good_ops


def test_overload_cell_splits_every_completion_into_good_or_failed(
        monkeypatch):
    from repro.harness.overload import probe_overload

    runs = _record_runs(monkeypatch)
    row = probe_overload("rio", "optane", 3000, "off")
    (run,) = runs
    _assert_accounting(run)
    assert row["good_ops"] == run.good_ops
    assert row["failed_ops"] == run.failed_ops
    assert row["timeout_rate"] == (
        run.failures_by_cause["timeout"] / run.ops)


def test_storm_cell_splits_every_completion_into_good_or_failed(
        monkeypatch):
    from repro.harness.tenants import probe_noisy_neighbor

    runs = _record_runs(monkeypatch)
    # The bench storm cell: its shed bronze ops fail inside the window.
    row = probe_noisy_neighbor("rio", qos=True, duration=12e-3)
    (run,) = runs
    _assert_accounting(run)
    # The storm's served load still counts its error completions.
    assert row["achieved_kiops"] == run.ops / run.elapsed / 1e3
