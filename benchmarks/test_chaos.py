"""Chaos suite: 30 seeded trials per system under randomized transient
faults (message loss ≤5%, ≥1 QP breakdown and ≥1 target stall per trial).

Acceptance invariants per trial:

* zero deadlocks (liveness-watched completions + SimDeadlock);
* zero prefix/order violations — per-stream completion order (Rio, Linux)
  and per-stream SSD submission order (target audit log) both hold;
* zero duplicate applies despite retransmissions (target-side
  ``(stream, position)`` audit);
* forward progress: every group completes, no pending-table leaks.

Plus a graceful-degradation measurement: throughput dips during a timed
fault burst and recovers after it.
"""

from benchmarks.conftest import run_once
from repro.harness.chaos import (
    measure_degradation,
    run_chaos_suite,
    run_chaos_trial,
    run_scale_chaos_trial,
    run_tenant_chaos_trial,
)
from repro.sim.faults import FaultPlan

SYSTEMS = ("rio", "horae", "linux")


def assert_trial_ok(result, max_live_heap=4):
    assert not result.deadlocked, (
        f"{result.system} seed={result.seed}: {result.deadlock_reason}"
    )
    assert result.completed_groups == result.total_groups, result.summary()
    assert result.completion_order_violations == [], result.summary()
    assert result.duplicate_applies == [], result.summary()
    assert result.submission_order_violations == [], result.summary()
    assert result.errors == [], result.summary()
    assert result.leak_error == "", result.leak_error
    # Completed watchdog arms must disarm their expiry timers: a trial
    # used to end with dozens of stale armed timeouts still on the heap.
    # A small allowance remains because the final group's completion stops
    # the clock mid-tick: watchdogs for commands completing in that same
    # instant never get to run their disarm callbacks, so deep-queue
    # trials pass a proportionally larger ``max_live_heap``.
    assert result.heap_live_entries <= max_live_heap, (
        f"{result.system} seed={result.seed}: "
        f"{result.heap_live_entries} live heap entries leaked"
    )
    # Every trial met the chaos floor.
    assert result.fault_counts.get("qp_breakdown", 0) >= 1, result.summary()
    assert result.fault_counts.get("target_stall", 0) >= 1, result.summary()


def test_chaos_suite_30_trials_all_systems(benchmark):
    results = run_once(benchmark, run_chaos_suite, systems=SYSTEMS, trials=30)
    assert len(results) == 30 * len(SYSTEMS)
    for result in results:
        assert_trial_ok(result)
    # The suite actually exercised the fault plane, not a quiet network.
    total_drops = sum(r.messages_dropped for r in results)
    total_retries = sum(r.retries for r in results)
    total_reconnects = sum(r.reconnects for r in results)
    assert total_drops > 0
    assert total_retries > 0
    assert total_reconnects >= 30 * len(SYSTEMS)  # ≥1 breakdown per trial
    # Rio's duplicate suppression fired somewhere across the suite (lost
    # responses force retransmits of already-admitted writes).
    assert sum(r.duplicates_suppressed for r in results if r.system == "rio") > 0
    benchmark.extra_info["trials"] = len(results)
    benchmark.extra_info["drops"] = total_drops
    benchmark.extra_info["retries"] = total_retries
    benchmark.extra_info["reconnects"] = total_reconnects


def test_chaos_smoke(benchmark):
    """CI smoke: 3 fixed-seed trials, one per system."""
    def smoke():
        return [
            run_chaos_trial(system=system, seed=1001) for system in SYSTEMS
        ]

    results = run_once(benchmark, smoke)
    for result in results:
        assert_trial_ok(result)


def test_qualification_crash_during_cache_drain(benchmark):
    """Seeded regression on the qualification layout: a deep ordered burst
    onto the small-cache PM981 variant prefilled into steady-state GC, with
    a QP breakdown, a target stall and a full target power cycle landing
    while the write cache is draining under eviction pressure.

    The crash drops the volatile cache mid-drain, so the driver's watchdog
    resubmits everything the target acknowledged but lost — the worst case
    for the target-side admission audit.  Every chaos invariant must
    survive the crash epoch: retransmits admitted exactly once, per-stream
    order intact, no leaks, no wedge.
    """
    def plan():
        return (
            FaultPlan(seed=9041, message_loss=0.02, corruption=0.005,
                      delay_probability=0.02, delay_range=(5e-6, 40e-6))
            .qp_breakdown(at=60e-6, qp_index=1)
            .target_stall(at=110e-6, target_index=0, duration=60e-6)
            .target_crash(at=220e-6, target_index=0, restart_after=150e-6)
        )

    def trials():
        return [
            run_chaos_trial(
                system=system, seed=9041, layout="flash-qual", prefill=0.92,
                threads=4, groups_per_thread=64, writes_per_group=4,
                depth=256, plan=plan(),
            )
            for system in SYSTEMS
        ]

    for result in run_once(benchmark, trials):
        # 4 threads x depth 256: allow one tick's worth of still-armed
        # watchdogs per thread at the stop instant (see assert_trial_ok).
        assert_trial_ok(result, max_live_heap=16)
        # The crash actually landed and forced recovery work.
        assert result.fault_counts.get("target_crash", 0) >= 1
        assert result.reconnects >= 1, result.summary()
        # Recovery work happened: command resubmits (rio/linux driver) or
        # RPC retries (horae's ordering-metadata path).
        assert result.commands_resubmitted + result.retries > 0, (
            result.summary()
        )
        # ... in the qualification regime, not on an idle fresh drive: the
        # device was GC-active with the cache under eviction pressure, and
        # it power-cycled mid-run.
        health = result.device_health["target0-ssd0"]
        assert health["gc_active"] == 1.0, health
        assert health["write_amp"] > 1.05, health
        assert health["cache_evictions"] > 0, health
        assert health["power_cycles"] >= 1.0, health
    benchmark.extra_info["systems"] = len(SYSTEMS)


def test_multi_initiator_qp_breakdown_spares_bystander(benchmark):
    """Blast-radius containment on the scale-out plane: a QP breakdown on
    initiator host 0 must not stall or reorder the streams owned by host 1.

    Each seeded trial runs twice — fault-free baseline, then with a
    breakdown-only plan confined to host 0's queue pairs — and the
    bystander host's streams (odd stream ids, since stream ``s`` lives on
    host ``s % 2``) must complete in the identical order and essentially
    the identical time, while host 0 visibly reconnects and recovers.
    """
    seeds = (4242, 2001, 2002)

    def trials():
        return [
            (
                run_scale_chaos_trial(system="rio", seed=seed, faults=False),
                run_scale_chaos_trial(system="rio", seed=seed, faults=True),
            )
            for seed in seeds
        ]

    def bystander_makespan(result):
        return max(
            (t for s, _g, t in result.completion_log if s % 2 == 1),
            default=0.0,
        )

    for baseline, faulted in run_once(benchmark, trials):
        # The faulted run upholds every chaos invariant cluster-wide.
        assert not faulted.deadlocked, faulted.deadlock_reason
        assert faulted.completed_groups == faulted.total_groups
        assert faulted.completion_order_violations == [], faulted.summary()
        assert faulted.duplicate_applies == [], faulted.summary()
        assert faulted.submission_order_violations == [], faulted.summary()
        assert faulted.errors == [], faulted.summary()
        assert faulted.leak_error == "", faulted.leak_error
        # RPC retries and command watchdogs must disarm superseded expiry
        # timers cluster-wide too — a leak here grows with command count.
        assert faulted.heap_live_entries <= 4, (
            f"seed={faulted.seed}: {faulted.heap_live_entries} live heap "
            "entries leaked"
        )
        # The fault actually landed — on the victim host only.
        assert faulted.fault_counts.get("qp_breakdown", 0) >= 1
        assert faulted.node_reconnects[0] >= 1, faulted.summary()
        assert faulted.node_reconnects[1] == 0, faulted.summary()
        assert faulted.node_retries[1] == 0, faulted.summary()
        # Bystander streams: identical per-stream completion sequences
        # (cross-stream interleave may shift — the hosts share targets —
        # but each stream's own order and contents must match) ...
        def per_stream(result):
            out = {}
            for s, g, _t in result.completion_log:
                if s % 2 == 1:
                    out.setdefault(s, []).append(g)
            return out

        assert per_stream(faulted) == per_stream(baseline)
        # ... and no stall:
        assert bystander_makespan(faulted) <= (
            bystander_makespan(baseline) * 1.10 + 20e-6
        )
    benchmark.extra_info["seeds"] = len(seeds)


def test_noisy_neighbor_storm_survives_transient_faults(benchmark):
    """Tenant-plane chaos regression: the seeded noisy-neighbor storm —
    a bronze aggressor of large writes at ~2x the media pipe's capacity
    vs. one quiet gold tenant — with a queue-pair breakdown on an
    aggressor lane and a target stall landing inside the measured window.

    With QoS on, the aggressor is paced/shed at admission and the gold
    tenant's p999 stays within its SLO *even while the faults land*;
    with QoS off the very same seeded storm starves gold (the violation
    direction still demonstrates, so the pass is not an artifact of the
    faults weakening the aggressor).  The target-side audits — no
    duplicate applies, no submission-order regressions — hold in both
    runs despite retransmissions and per-tenant sheds."""
    seed, slo_us = 3, 2_000.0

    def trials():
        return (
            run_tenant_chaos_trial(system="rio", seed=seed, qos=True),
            run_tenant_chaos_trial(system="rio", seed=seed, qos=False),
        )

    protected, unprotected = run_once(benchmark, trials)
    expected_gold = 20.0 * 1e3 * 3e-3  # gold_kiops x duration

    # Protected: the faults actually landed and the SLO still held.
    assert protected.fault_counts.get("qp_breakdown", 0) >= 1
    assert protected.fault_counts.get("target_stall", 0) >= 1
    assert protected.reconnects >= 1, protected.summary()
    gold = protected.class_latency["gold"]
    assert gold["count"] >= 0.5 * expected_gold, gold
    assert 0.0 < gold["p999_us"] <= slo_us, gold
    assert protected.sheds_by_reason.get("pace", 0.0) > 0, (
        protected.sheds_by_reason
    )
    assert protected.ok, protected.summary()

    # Unprotected, same seed, same faults: gold demonstrably violated
    # (starved behind the aggressor's media backlog, or past the SLO).
    starved = unprotected.class_latency["gold"]
    assert (starved["count"] < 0.5 * expected_gold
            or starved["p999_us"] > slo_us), starved
    assert unprotected.sheds_by_reason == {}, unprotected.sheds_by_reason
    # The ordering audits hold even for the unprotected storm.
    assert unprotected.duplicate_applies == []
    assert unprotected.submission_order_violations == []

    benchmark.extra_info["gold_p999_us"] = gold["p999_us"]
    benchmark.extra_info["gold_done"] = gold["count"] / expected_gold
    benchmark.extra_info["aggressor_sheds"] = sum(
        protected.sheds_by_reason.values())


def test_gray_target_spares_bystanders(benchmark):
    """Gray-failure containment: one target turns fail-slow (8x service
    inflation) mid-run and the health plane must confine the damage.

    The sick target's breaker trips and opens; every other breaker stays
    closed; unordered flows fail over to the healthy target; ordered
    streams pinned to the sick shard brown out explicitly instead of
    wedging; and the bystander shard's tail latency stays flat.
    """
    from repro.harness.overload import probe_gray

    r = run_once(benchmark, probe_gray, seed=42)
    assert r["breaker_trips"] >= 1, r
    assert r["sick_breaker_open"] == 1.0, r
    assert r["healthy_breakers_closed"] == 1.0, r
    assert r["failovers"] >= 1, r
    # Unordered traffic shifted off the sick target after the trip.
    assert r["unordered_on_healthy"] > r["unordered_on_sick"], r
    # Ordered sick-shard streams browned out (explicit, not a wedge) ...
    assert r["brownouts"] >= 1, r
    assert r["dead_streams"] >= 1, r
    # ... while the bystander shard's p999 stayed at its healthy level
    # (one 4KiB write on an idle Optane target completes in ~25us).
    assert r["bystander_p999_us"] < 60.0, r
    # Sub-capacity load on the healthy shard: no admission sheds at all.
    assert r["shed_rate"] == 0.0, r
    benchmark.extra_info["bystander_p999_us"] = r["bystander_p999_us"]
    benchmark.extra_info["brownouts"] = r["brownouts"]
    benchmark.extra_info["failovers"] = r["failovers"]


def test_graceful_degradation_and_recovery(benchmark):
    """Throughput dips during a timed breakdown+stall burst and recovers
    to at least half the pre-fault rate afterwards."""
    d = run_once(benchmark, measure_degradation, system="rio", seed=7)
    assert d["ok"] == 1.0
    assert d["completed"] == d["total"]
    assert d["during_rate"] < d["before_rate"], d
    assert d["after_rate"] > 0.5 * d["before_rate"], d
    benchmark.extra_info.update(
        {k: v for k, v in d.items() if k != "ok"}
    )
