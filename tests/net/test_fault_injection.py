"""Unit tests for the transient-fault plane at the fabric level:
FaultPlan verdicts, corruption discard, delivery delay, QP breakdown."""

import pytest

from repro.hw.nic import Nic
from repro.net.fabric import Fabric, Message
from repro.sim import DeterministicRNG, Environment, FaultPlan, FaultRecord
from repro.sim.obs import Observability


def make_pair(num_qps=1, env=None, plan=None):
    env = env or Environment()
    nic_a = Nic(env, name="initiator-nic")
    nic_b = Nic(env, name="target-nic")
    fabric = Fabric(env, DeterministicRNG(3))
    if plan is not None:
        fabric.fault_plan = plan
    qps = fabric.connect(nic_a, nic_b, num_qps)
    return env, qps


def collect_into(env, qp, received):
    def handler(msg):
        received.append(msg.payload)
        yield env.timeout(0)

    qp.endpoints[1].set_receive_handler(handler)


# ----------------------------------------------------------------------
# FaultPlan construction and verdicts
# ----------------------------------------------------------------------


def test_plan_validates_probabilities():
    with pytest.raises(ValueError):
        FaultPlan(message_loss=0.7, corruption=0.4)
    with pytest.raises(ValueError):
        FaultPlan(message_loss=-0.1)


def test_verdicts_are_deterministic_per_seed():
    def verdicts(seed):
        env, (qp,) = make_pair(plan=FaultPlan(seed=seed, message_loss=0.3))
        plan = qp.fault_plan
        return [
            plan.message_verdict(
                qp, 0, Message(kind="cmd", payload=None, nbytes=64)
            )[0]
            for _ in range(50)
        ]

    assert verdicts(11) == verdicts(11)
    assert verdicts(11) != verdicts(12)


def test_zero_probability_plan_never_interferes():
    plan = FaultPlan(seed=5)
    env, (qp,) = make_pair(plan=plan)
    received = []
    collect_into(env, qp, received)
    for i in range(50):
        qp.endpoints[0].post_send(Message(kind="cmd", payload=i, nbytes=64))
    env.run()
    assert received == list(range(50))
    assert plan.messages_dropped == plan.messages_corrupted == 0
    assert plan.messages_delayed == 0
    assert plan.messages_seen == 50


def test_message_loss_drops_messages_and_records_faults():
    plan = FaultPlan(seed=7, message_loss=0.5)
    env, (qp,) = make_pair(plan=plan)
    received = []
    collect_into(env, qp, received)
    for i in range(100):
        qp.endpoints[0].post_send(Message(kind="cmd", payload=i, nbytes=64))
    env.run()
    assert 0 < len(received) < 100
    assert plan.messages_dropped == 100 - len(received)
    drops = [r for r in plan.injected if r.kind == "drop"]
    assert len(drops) == plan.messages_dropped
    assert all(isinstance(r, FaultRecord) for r in drops)
    # Survivors still arrive in FIFO order.
    assert received == sorted(received)


def test_corrupted_messages_are_discarded_at_receiver_with_trace():
    plan = FaultPlan(seed=3, corruption=0.5)
    env, (qp,) = make_pair(plan=plan)
    obs = Observability(env)
    received = []
    collect_into(env, qp, received)
    for i in range(60):
        qp.endpoints[0].post_send(Message(kind="cmd", payload=i, nbytes=64))
    env.run()
    assert plan.messages_corrupted > 0
    # CRC discard: corrupted messages never reach the handler.
    assert len(received) == 60 - plan.messages_corrupted
    discards = [e for e in obs.events
                if (e.category, e.event) == ("fault", "corrupt_discard")]
    assert len(discards) == plan.messages_corrupted


def test_delay_preserves_fifo_order():
    plan = FaultPlan(
        seed=9, delay_probability=0.5, delay_range=(10e-6, 100e-6)
    )
    env, (qp,) = make_pair(plan=plan)
    received = []
    collect_into(env, qp, received)
    for i in range(60):
        qp.endpoints[0].post_send(Message(kind="cmd", payload=i, nbytes=64))
    env.run()
    assert plan.messages_delayed > 0
    # Head-of-line delay: everything still arrives, in order.
    assert received == list(range(60))


# ----------------------------------------------------------------------
# QP breakdown
# ----------------------------------------------------------------------


def test_breakdown_discards_in_flight_and_bumps_generation():
    env, (qp,) = make_pair()
    received = []
    collect_into(env, qp, received)
    for i in range(5):
        qp.endpoints[0].post_send(Message(kind="cmd", payload=i, nbytes=64))

    def breaker(env):
        yield env.timeout(0.5e-6)  # before the ~2us propagation delay
        qp.breakdown()

    env.process(breaker(env))
    env.run()
    assert received == []  # all five were in flight across the breakdown
    assert qp.generation == 1

    # The QP itself stays usable (unlike crash()): new sends flow.
    qp.endpoints[0].post_send(Message(kind="cmd", payload="post", nbytes=64))
    env.run()
    assert received == ["post"]


def test_breakdown_callbacks_fire():
    env, (qp,) = make_pair()
    seen = []
    qp.on_breakdown(lambda q: seen.append(q.generation))
    qp.breakdown()
    qp.breakdown()
    assert seen == [1, 2]


def test_timed_faults_fire_at_configured_times():
    from repro.cluster import Cluster
    from repro.hw.ssd import OPTANE_905P

    env = Environment()
    cluster = Cluster(env, target_ssds=((OPTANE_905P,),), initiator_cores=2,
                      target_cores=2, num_qps=2)
    plan = (
        FaultPlan(seed=1)
        .qp_breakdown(at=10e-6, qp_index=0)
        .target_stall(at=20e-6, target_index=0, duration=30e-6)
    )
    plan.install(cluster)
    env.run(until=100e-6)
    kinds = [r.kind for r in plan.injected]
    assert "qp_breakdown" in kinds
    assert "target_stall" in kinds
    breakdown = next(r for r in plan.injected if r.kind == "qp_breakdown")
    assert breakdown.time == pytest.approx(10e-6)
    assert cluster.fabric.queue_pairs[0].generation == 1


def test_each_timed_fault_is_logged_once():
    """One ``fault`` event per injected fault, whether the plan fires it
    or a caller invokes the component directly; the plan's own record
    (``injected``/``counts()``) is unchanged."""
    from repro.cluster import Cluster
    from repro.hw.ssd import OPTANE_905P

    env = Environment()
    obs = Observability(env)
    cluster = Cluster(env, target_ssds=((OPTANE_905P,),), initiator_cores=2,
                      target_cores=2, num_qps=2)
    plan = (
        FaultPlan(seed=1)
        .qp_breakdown(at=10e-6, qp_index=0)
        .target_stall(at=20e-6, target_index=0, duration=30e-6)
        .degrade(at=30e-6, target_index=0, factor=2.0, duration=20e-6)
    )
    plan.install(cluster)
    env.run(until=100e-6)
    timed = ("qp_breakdown", "target_stall", "degrade", "degrade_end")
    assert plan.counts() == {kind: 1 for kind in timed}

    def logged():
        return [e.event for e in obs.events
                if e.category == "fault" and e.event in timed]

    assert sorted(logged()) == sorted(timed)
    cluster.fabric.queue_pairs[1].breakdown()
    cluster.targets[0].stall(10e-6)
    assert sorted(logged()) == sorted(timed + ("qp_breakdown",
                                               "target_stall"))


def test_plan_cannot_be_installed_twice():
    from repro.cluster import Cluster
    from repro.hw.ssd import OPTANE_905P

    env = Environment()
    cluster = Cluster(env, target_ssds=((OPTANE_905P,),), initiator_cores=2,
                      target_cores=2, num_qps=2)
    plan = FaultPlan(seed=1)
    plan.install(cluster)
    with pytest.raises(RuntimeError):
        plan.install(cluster)


# ----------------------------------------------------------------------
# Zero cost when inactive
# ----------------------------------------------------------------------


def test_inactive_fault_plane_changes_nothing():
    """A zero-probability plan (and hardening left off) must reproduce the
    stock run bit-for-bit: same ops, same latency, same commands — the
    fault plane draws from its own RNG and never perturbs existing
    streams."""
    from repro.apps.fio import run_block_workload
    from repro.cluster import Cluster
    from repro.hw.ssd import OPTANE_905P
    from repro.systems.base import make_stack

    def run(with_plan):
        env = Environment()
        cluster = Cluster(env, target_ssds=((OPTANE_905P,),),
                          initiator_cores=4, target_cores=4, num_qps=4)
        if with_plan:
            FaultPlan(seed=99).install(cluster)
        stack = make_stack("rio", cluster, num_streams=2)
        result = run_block_workload(cluster, stack, threads=2,
                                    duration=0.5e-3)
        return (result.ops, result.bytes_written, result.commands_sent,
                result.latency.mean, result.initiator_busy_cores)

    assert run(False) == run(True)
