"""Tests of the four compared stacks: semantics and relative performance."""

import pytest

from repro.cluster import Cluster
from repro.hw.ssd import FLASH_PM981, OPTANE_905P
from repro.sim import Environment
from repro.scale import ScaleOutCluster
from repro.systems import make_stack
from repro.systems.base import ShardedStack, stacks


def build(stack_name, profiles=((OPTANE_905P,),), num_streams=4):
    env = Environment()
    cluster = Cluster(env, target_ssds=profiles)
    stack = make_stack(stack_name, cluster, num_streams=num_streams)
    return env, cluster, stack


@pytest.mark.parametrize("name", ["orderless", "linux", "horae", "rio"])
def test_single_ordered_write_completes(name):
    env, cluster, stack = build(name)
    core = cluster.initiator.cpus.pick(0)

    def proc(env):
        done = yield from stack.write_ordered(core, 0, lba=4, nblocks=1,
                                              payload=["x"])
        yield done

    env.run_until_event(env.process(proc(env)))
    assert cluster.targets[0].ssds[0].durable_payload(4) == "x"


@pytest.mark.parametrize("name", ["linux", "horae", "rio"])
def test_groups_persist_in_order_on_flash(name):
    """After every group completes, all earlier groups must be durable —
    the storage-order contract on a volatile-cache SSD."""
    env, cluster, stack = build(name, profiles=((FLASH_PM981,),))
    core = cluster.initiator.cpus.pick(0)
    violations = []

    def proc(env):
        events = []
        for i in range(8):
            done = yield from stack.write_ordered(
                core, 0, lba=i * 4, nblocks=1, payload=[i],
                flush=(name != "linux"),  # rio/horae need explicit durability
            )
            events.append((i, done))
        for i, done in events:
            env.process(check(env, i, done))
        yield env.all_of([d for _i, d in events])

    def check(env, i, done):
        yield done
        ssd = cluster.targets[0].ssds[0]
        for j in range(i + 1):
            # Completion of group i implies durability of groups <= i for
            # flush-carrying rio/horae and for linux's FLUSH-per-group.
            if not ssd.is_durable(j * 4):
                violations.append((i, j))

    env.run_until_event(env.process(proc(env)))
    assert violations == []


def test_linux_serializes_groups():
    """The second group must not be dispatched before the first completes."""
    env, cluster, stack = build("linux", profiles=((OPTANE_905P,),))
    core = cluster.initiator.cpus.pick(0)
    finish_times = {}

    def proc(env):
        e1 = yield from stack.write_ordered(core, 0, lba=0, nblocks=1)
        e2 = yield from stack.write_ordered(core, 0, lba=100, nblocks=1)
        env.process(mark(env, "g1", e1))
        env.process(mark(env, "g2", e2))
        yield env.all_of([e1, e2])

    def mark(env, tag, event):
        yield event
        finish_times[tag] = env.now

    env.run_until_event(env.process(proc(env)))
    # Synchronous chain: the gap between completions is at least one full
    # round trip + SSD write (~15 us), not pipelined.
    assert finish_times["g2"] - finish_times["g1"] > 12e-6


def test_horae_control_path_writes_pmr():
    env, cluster, stack = build("horae")
    core = cluster.initiator.cpus.pick(0)

    def proc(env):
        events = []
        for i in range(5):
            done = yield from stack.write_ordered(core, 0, lba=i * 8, nblocks=1)
            events.append(done)
        yield env.all_of(events)

    env.run_until_event(env.process(proc(env)))
    assert stack.policies[0].control_writes == 5
    assert cluster.targets[0].pmr.writes == 5


def test_horae_faster_than_linux_on_flash():
    """HORAE removes the per-group FLUSH (Figure 2(a))."""

    def throughput(name):
        env, cluster, stack = build(name, profiles=((FLASH_PM981,),))
        core = cluster.initiator.cpus.pick(0)
        count = [0]

        def writer(env):
            inflight = []
            i = 0
            while env.now < 5e-3:
                done = yield from stack.write_ordered(core, 0, lba=i * 2,
                                                      nblocks=1)
                i += 1
                inflight.append(done)
                if len(inflight) >= 16:
                    yield env.any_of(inflight)
                    inflight = [e for e in inflight if not e.triggered]
                    count[0] = i - len(inflight)

        env.process(writer(env))
        env.run(until=5e-3)
        return count[0]

    assert throughput("horae") > 3 * throughput("linux")


def test_relative_throughput_shape_on_optane():
    """The Figure 10(b) ordering: linux << horae < rio ~= orderless."""

    def throughput(name):
        env, cluster, stack = build(name, num_streams=1)
        core = cluster.initiator.cpus.pick(0)
        done_count = [0]

        def writer(env):
            inflight = []
            i = 0
            while env.now < 5e-3:
                done = yield from stack.write_ordered(core, 0, lba=i * 3,
                                                      nblocks=1)
                i += 1
                inflight.append(done)
                if len(inflight) >= 32:
                    yield env.any_of(inflight)
                    kept = []
                    for e in inflight:
                        if e.triggered:
                            done_count[0] += 1
                        else:
                            kept.append(e)
                    inflight = kept

        env.process(writer(env))
        env.run(until=5e-3)
        return done_count[0]

    linux = throughput("linux")
    horae = throughput("horae")
    rio = throughput("rio")
    orderless = throughput("orderless")
    assert linux < horae < rio, (linux, horae, rio)
    assert rio > 2.0 * horae or rio > 0.7 * orderless
    assert rio > 0.65 * orderless, (rio, orderless)
    assert horae > 2 * linux


def test_rio_nomerge_variant():
    env, cluster, stack = build("rio-nomerge")
    assert stack.name == "rio-nomerge"
    assert stack.scheduler.merging_enabled is False


@pytest.mark.parametrize("name", ["rio", "linux", "horae", "orderless"])
def test_one_initiator_make_stack_is_the_node_stack(name):
    """At N = 1 there is nothing to route: the caller gets the node's
    stack itself, built on the cluster's one host."""
    cluster = ScaleOutCluster(Environment(), ((OPTANE_905P,),),
                              num_initiators=1)
    stack = make_stack(name, cluster, num_streams=4)
    assert isinstance(stack, stacks()[name])
    assert stack.cluster is cluster.nodes[0]
    assert not isinstance(stack, ShardedStack)
    assert stack.name == name


def test_unknown_stack_rejected():
    env = Environment()
    cluster = Cluster(env, target_ssds=((OPTANE_905P,),))
    with pytest.raises(ValueError):
        make_stack("zfs", cluster)
